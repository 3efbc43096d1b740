package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nbody/internal/jobs"
	"nbody/internal/obs"
	"nbody/internal/simcfg"
	"nbody/internal/store"
)

// newJobServer builds a session manager, a job queue driving it through
// NewJobRunner, and an httptest server exposing both APIs.
func newJobServer(t *testing.T, cfg Config, jcfg jobs.Config) (*Manager, *jobs.Manager, *httptest.Server) {
	t.Helper()
	if cfg.Obs == nil {
		cfg.Obs = obs.Nop() // one registry shared by sessions and jobs
	}
	jcfg.Obs = cfg.Obs
	m := newTestManager(t, cfg)
	jcfg.Runner = NewJobRunner(m)
	if jcfg.RetryBase == 0 {
		jcfg.RetryBase = time.Millisecond
	}
	jm, err := jobs.NewManager(jcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { // registered after m's cleanup, so it drains first
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		jm.Close(ctx)
	})
	srv := httptest.NewServer(NewHandlerWithJobs(m, jm))
	t.Cleanup(srv.Close)
	return m, jm, srv
}

func getJob(t *testing.T, srv *httptest.Server, id string) jobs.Info {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	return decodeBody[jobs.Info](t, resp)
}

func waitJobState(t *testing.T, srv *httptest.Server, id string, want jobs.State) jobs.Info {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		info := getJob(t, srv, id)
		if info.State == want {
			return info
		}
		if info.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, info.State, info.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for job %s to reach %s", id, want)
	return jobs.Info{}
}

// TestJobLifecycleHTTP is the end-to-end path of ISSUE satellite 4:
// submit → queued → succeeded → artifact downloads, with the job metrics
// visible on /metrics.
func TestJobLifecycleHTTP(t *testing.T) {
	_, _, srv := newJobServer(t, testConfig(), jobs.Config{Workers: 1})

	resp := postJSON(t, srv.URL+"/v1/jobs",
		`{"workload":"plummer","n":64,"config":{"dt":0.001},"steps":12,"chunk_steps":5,"class":"high"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/j-") {
		t.Fatalf("Location %q", loc)
	}
	info := decodeBody[jobs.Info](t, resp)
	if info.State != jobs.StateQueued || info.Class != "high" {
		t.Fatalf("submit info %+v", info)
	}

	done := waitJobState(t, srv, info.ID, jobs.StateSucceeded)
	if done.StepsDone != 12 || done.SessionID == "" {
		t.Fatalf("terminal info %+v", done)
	}

	// The backing session really advanced 12 steps.
	sresp, err := http.Get(srv.URL + "/v1/sessions/" + done.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	if s := decodeBody[Info](t, sresp); s.Steps != 12 {
		t.Fatalf("session steps %d, want 12", s.Steps)
	}

	// Artifact downloads: binary snapshot and CSV trace.
	snap, err := http.Get(srv.URL + "/v1/jobs/" + info.ID + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(snap.Body)
	snap.Body.Close()
	if snap.StatusCode != http.StatusOK || !strings.HasPrefix(string(body), "NBODYSNP") {
		t.Fatalf("snapshot artifact: status %d, %d bytes", snap.StatusCode, len(body))
	}
	tr, err := http.Get(srv.URL + "/v1/jobs/" + info.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	csv, _ := io.ReadAll(tr.Body)
	tr.Body.Close()
	if tr.StatusCode != http.StatusOK || !strings.Contains(string(csv), "step") {
		t.Fatalf("trace artifact: status %d, body %q", tr.StatusCode, string(csv[:min(len(csv), 80)]))
	}

	// Listing includes the job.
	lresp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if l := decodeBody[jobListResponse](t, lresp); len(l.Jobs) != 1 || l.Jobs[0].ID != info.ID {
		t.Fatalf("list %+v", l)
	}

	// The Prometheus surface exposes the job metrics.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`nbody_jobs_queue_depth{class="high"} 0`,
		`nbody_jobs_submitted_total{class="high"} 1`,
		`nbody_jobs_finished_total{state="succeeded"} 1`,
		`nbody_job_wait_seconds_count{class="high"} 1`,
		`nbody_job_run_seconds_count{class="high"} 1`,
		`nbody_jobs_running 0`,
		`nbody_job_retries_total 0`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestJobBackpressureHTTP: a full queue sheds with 429 + Retry-After and
// the envelope's overloaded code; cancel paths return their documented
// statuses.
func TestJobBackpressureHTTP(t *testing.T) {
	blocked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	m, _, srv := newJobServer(t, testConfig(), jobs.Config{Workers: 1, MaxQueue: 1})
	m.stepHook = func(*Session) {
		once.Do(func() { close(blocked) })
		<-release
	}
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	submit := func() *http.Response {
		return postJSON(t, srv.URL+"/v1/jobs", `{"workload":"plummer","n":32,"config":{"dt":0.001},"steps":4}`)
	}
	first := decodeBody[jobs.Info](t, submit())
	<-blocked // the single worker is now wedged inside a step
	second := decodeBody[jobs.Info](t, submit())

	resp := submit()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if e := decodeBody[errorResponse](t, resp); e.Error.Code != CodeOverloaded {
		t.Errorf("envelope code %q, want %s", e.Error.Code, CodeOverloaded)
	}

	// Artifacts of a queued job are not ready: 409 job_not_ready.
	aresp, err := http.Get(srv.URL + "/v1/jobs/" + second.ID + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	if aresp.StatusCode != http.StatusConflict {
		t.Fatalf("queued artifact status %d", aresp.StatusCode)
	}
	if e := decodeBody[errorResponse](t, aresp); e.Error.Code != CodeJobNotReady {
		t.Errorf("envelope code %q, want %s", e.Error.Code, CodeJobNotReady)
	}

	// Cancelling the queued job returns its cancelled description.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+second.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: status %d", dresp.StatusCode)
	}
	if got := decodeBody[jobs.Info](t, dresp); got.State != jobs.StateCancelled {
		t.Fatalf("cancel queued: state %s", got.State)
	}

	close(release)
	waitJobState(t, srv, first.ID, jobs.StateSucceeded)

	// Deleting a terminal job removes it: 204, then 404 job_not_found.
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+first.ID, nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete terminal: status %d", dresp.StatusCode)
	}
	gresp, err := http.Get(srv.URL + "/v1/jobs/" + first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("get deleted: status %d", gresp.StatusCode)
	}
	if e := decodeBody[errorResponse](t, gresp); e.Error.Code != CodeJobNotFound {
		t.Errorf("envelope code %q, want %s", e.Error.Code, CodeJobNotFound)
	}
}

// TestJobSurvivesRestart is the acceptance test for checkpoint-resume: a
// job interrupted mid-run (its record left in "running", as a crash
// would) is re-enqueued from the persisted record on restart and resumes
// the recovered session from its last checkpoint instead of starting
// over.
func TestJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	openStores := func() (*store.Store, *store.JobStore) {
		st, err := store.Open(dir + "/sessions")
		if err != nil {
			t.Fatal(err)
		}
		js, err := store.OpenJobs(dir + "/jobs")
		if err != nil {
			t.Fatal(err)
		}
		return st, js
	}

	// First life: run the job past its first checkpoints, then drain.
	st1, js1 := openStores()
	cfg := testConfig()
	cfg.Store = st1
	cfg.CheckpointEvery = 1
	m1 := newTestManager(t, cfg)
	jm1, err := jobs.NewManager(jobs.Config{
		Runner: NewJobRunner(m1), Workers: 1, Store: js1, ChunkSteps: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	info, err := jm1.Submit(context.Background(),
		jobs.Spec{Spec: plummerReq(48, 0, simcfg.Config{DT: 1e-3}).Spec, Steps: 20})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	var mid jobs.Info
	for {
		mid, err = jm1.Get(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if mid.StepsDone >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no chunk progress: %+v", mid)
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := jm1.Close(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := m1.Close(ctx); err != nil {
		t.Fatalf("session drain: %v", err)
	}

	// Make the record crash-shaped: a process killed mid-chunk leaves
	// "running" on disk, never the drain's tidy "queued".
	recs, _, err := js1.Recover()
	if err != nil || len(recs) != 1 {
		t.Fatalf("recover: %v %+v", err, recs)
	}
	rec := recs[0]
	if rec.StepsDone < 4 || rec.SessionID == "" {
		t.Fatalf("persisted record %+v: want committed chunk progress", rec)
	}
	rec.State = string(jobs.StateRunning)
	if err := js1.Save(rec); err != nil {
		t.Fatal(err)
	}

	// Second life: fresh stores over the same directories. The session
	// manager recovers the checkpoint; the job queue re-enqueues the
	// record and finishes the remaining steps on the same session.
	st2, js2 := openStores()
	cfg2 := testConfig()
	cfg2.Store = st2
	cfg2.CheckpointEvery = 1
	m2 := newTestManager(t, cfg2)
	jm2, err := jobs.NewManager(jobs.Config{
		Runner: NewJobRunner(m2), Workers: 1, Store: js2, ChunkSteps: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		jm2.Close(ctx)
	})

	for {
		done, err := jm2.Get(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if done.State == jobs.StateSucceeded {
			if done.StepsDone != 20 {
				t.Fatalf("steps_done %d, want 20", done.StepsDone)
			}
			if done.SessionID != rec.SessionID {
				t.Fatalf("finished on session %s, want recovered %s (restart lost the checkpoint)",
					done.SessionID, rec.SessionID)
			}
			if done.Config != mid.Config || done.Algorithm != mid.Algorithm || done.DT != mid.DT {
				t.Errorf("job echo changed across the restart: %+v, was %+v", done, mid)
			}
			sinfo, err := m2.Get(rec.SessionID)
			if err != nil {
				t.Fatal(err)
			}
			if sinfo.Steps != 20 {
				t.Fatalf("session steps %d, want 20", sinfo.Steps)
			}
			return
		}
		if done.State.Terminal() {
			t.Fatalf("job finished %s: %q", done.State, done.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job did not finish after restart: %+v", done)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobsConcurrentChurn exercises the submit/cancel/status/scrape paths
// concurrently; run with -race, it is the queue's data-race canary.
func TestJobsConcurrentChurn(t *testing.T) {
	_, _, srv := newJobServer(t, testConfig(), jobs.Config{Workers: 3, MaxQueue: 32})

	classes := []string{"high", "normal", "low"}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var ids []string
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				body := fmt.Sprintf(`{"workload":"plummer","n":24,"config":{"dt":0.001},"steps":3,"class":%q}`,
					classes[(w+i)%len(classes)])
				resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode == http.StatusAccepted {
					info := decodeBody[jobs.Info](t, resp)
					mu.Lock()
					ids = append(ids, info.ID)
					mu.Unlock()
					if rand.IntN(3) == 0 {
						req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+info.ID, nil)
						if dresp, err := http.DefaultClient.Do(req); err == nil {
							dresp.Body.Close()
						}
					}
				} else {
					resp.Body.Close() // 429 under churn is fine
				}
				if i%3 == 0 {
					if lresp, err := http.Get(srv.URL + "/v1/jobs"); err == nil {
						lresp.Body.Close()
					}
					if mresp, err := http.Get(srv.URL + "/metrics"); err == nil {
						mresp.Body.Close()
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Everything submitted must settle into a terminal state.
	deadline := time.Now().Add(30 * time.Second)
	for _, id := range ids {
		for {
			resp, err := http.Get(srv.URL + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode == http.StatusNotFound { // deleted by churn
				resp.Body.Close()
				break
			}
			info := decodeBody[jobs.Info](t, resp)
			if info.State.Terminal() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", id, info.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestJobRunnerTransientClassification pins which session-layer errors the
// adapter marks retryable.
func TestJobRunnerTransientClassification(t *testing.T) {
	for _, tc := range []struct {
		err       error
		transient bool
	}{
		{ErrBusy, true},
		{ErrTooManySessions, true},
		{ErrConflict, true},
		{ErrSessionFailed, false},
		{ErrBadRequest, false},
		{ErrShutdown, false},
	} {
		got := errors.Is(transient(fmt.Errorf("wrap: %w", tc.err)), jobs.ErrTransient)
		if got != tc.transient {
			t.Errorf("transient(%v) = %v, want %v", tc.err, got, tc.transient)
		}
	}
}

// patchJSON sends a PATCH with a JSON body.
func patchJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPatch, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestJobReprioritizeHTTP drives PATCH /v1/jobs/{id}: a queued job moves
// class, a running one answers 409 job_not_queued, and bad inputs map to
// 400/404. A single worker pinned on a long job keeps the second one
// deterministically queued.
func TestJobReprioritizeHTTP(t *testing.T) {
	_, _, srv := newJobServer(t, testConfig(), jobs.Config{Workers: 1})

	long := postJSON(t, srv.URL+"/v1/jobs", `{"workload":"plummer","n":64,"config":{"dt":0.001},"steps":50000}`)
	if long.StatusCode != http.StatusAccepted {
		t.Fatalf("submit long job: status %d", long.StatusCode)
	}
	longID := decodeBody[jobs.Info](t, long).ID
	waitJobState(t, srv, longID, jobs.StateRunning)

	queued := postJSON(t, srv.URL+"/v1/jobs", `{"workload":"plummer","n":32,"config":{"dt":0.001},"steps":4,"class":"low"}`)
	if queued.StatusCode != http.StatusAccepted {
		t.Fatalf("submit queued job: status %d", queued.StatusCode)
	}
	queuedID := decodeBody[jobs.Info](t, queued).ID

	resp := patchJSON(t, srv.URL+"/v1/jobs/"+queuedID, `{"class":"high"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reprioritize queued job: status %d", resp.StatusCode)
	}
	if info := decodeBody[jobs.Info](t, resp); info.Class != "high" || info.State != jobs.StateQueued {
		t.Fatalf("reprioritized info %+v, want queued high", info)
	}

	resp = patchJSON(t, srv.URL+"/v1/jobs/"+longID, `{"class":"high"}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("reprioritize running job: status %d, want 409", resp.StatusCode)
	}
	if e := decodeBody[struct {
		Error ErrorDetail `json:"error"`
	}](t, resp); e.Error.Code != CodeJobNotQueued {
		t.Fatalf("running-job envelope code %q, want %s", e.Error.Code, CodeJobNotQueued)
	}

	for _, tc := range []struct {
		name, url, body string
		status          int
	}{
		{"unknown class", srv.URL + "/v1/jobs/" + queuedID, `{"class":"urgent"}`, http.StatusBadRequest},
		{"missing class", srv.URL + "/v1/jobs/" + queuedID, `{}`, http.StatusBadRequest},
		{"unknown field", srv.URL + "/v1/jobs/" + queuedID, `{"class":"high","x":1}`, http.StatusBadRequest},
		{"unknown job", srv.URL + "/v1/jobs/j-999", `{"class":"high"}`, http.StatusNotFound},
	} {
		if resp := patchJSON(t, tc.url, tc.body); resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		} else {
			resp.Body.Close()
		}
	}

	// Unpin the worker by cancelling the long job; the promoted one runs.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+longID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel long job: %v status %v", err, resp.Status)
	}
	waitJobState(t, srv, queuedID, jobs.StateSucceeded)
}
