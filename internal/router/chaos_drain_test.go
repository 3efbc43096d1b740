package router

// Drain racing a shard crash, driven by the chaos fault injector: the
// origin dies partway through the queued-job handoff (after one job's
// cancel succeeded but before its origin record was cleaned, and before
// the next job's cancel got through). The invariant under test: every
// queued job stays reachable — handed-off jobs from the successor
// immediately, stranded jobs after the origin restarts — and the merged
// listing never shows a job twice or loses one.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"nbody/internal/chaos"
	"nbody/internal/jobs"
	"nbody/internal/obs"
	"nbody/internal/serve"
	"nbody/internal/store"
)

// newDurableShard is newTestShard with a durable job store, so the shard
// can "crash" (stack closed) and "restart" (new stack over the same
// store) without losing queued jobs.
func newDurableShard(t *testing.T, name, dir string, gate chan struct{}) *testShard {
	t.Helper()
	ob := obs.Nop()
	m, err := serve.NewManager(serve.Config{
		MaxSessions: 64, MaxBodies: 100_000, IdleTTL: time.Minute,
		ShardID: name, Obs: ob,
	})
	if err != nil {
		t.Fatal(err)
	}
	js, err := store.OpenJobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	var runner jobs.Runner = serve.NewJobRunner(m)
	if gate != nil {
		runner = gatedRunner{runner, gate}
	}
	jm, err := jobs.NewManager(jobs.Config{
		Runner: runner, Workers: 2, RetryBase: time.Millisecond,
		ShardID: name, Obs: ob, Store: js,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.NewHandlerWithJobs(m, jm))
	shard := &testShard{name: name, m: m, jm: jm, srv: srv}
	t.Cleanup(func() { closeShardStack(shard) })
	return shard
}

// closeShardStack tears one shard's stack down (idempotent: the test
// "crashes" shard a explicitly, and cleanup closes it again harmlessly).
func closeShardStack(s *testShard) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Close()
	s.jm.Close(ctx)
	s.m.Close(ctx)
}

func submitJobVia(t *testing.T, frontURL string, steps int) (jobInfo, string) {
	t.Helper()
	resp, body := doReq(t, http.MethodPost, frontURL+"/v1/jobs",
		map[string]any{"workload": "plummer", "n": 32, "config": map[string]any{"dt": 1e-3}, "steps": steps})
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit job: status %d body %s", resp.StatusCode, body)
	}
	var j jobInfo
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	return j, resp.Header.Get("X-NBody-Shard")
}

func TestDrainRacingShardCrashLosesNoJobs(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	dir := t.TempDir()
	a := newDurableShard(t, "a", dir, gate)
	b := newTestShard(t, "b", nil)

	// Shard a sits behind a chaos proxy so the router can watch it "die".
	aURL, err := url.Parse(a.srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := chaos.NewProxy(aURL, chaos.New(11))
	proxyFront := httptest.NewServer(proxy)
	t.Cleanup(proxyFront.Close)

	cfg := Config{ProbeInterval: time.Hour}
	cfg.Shards = []ShardConfig{
		{Name: "a", URL: proxyFront.URL},
		{Name: "b", URL: b.srv.URL},
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	// Fill shard a: its two gated workers pin the first two jobs in
	// running, so later arrivals queue. Keep submitting until a holds two
	// queued jobs — the handoff candidates.
	queuedOnA := func() []string {
		var ids []string
		for _, j := range a.jm.List() {
			if j.State == jobs.StateQueued {
				ids = append(ids, j.ID)
			}
		}
		return ids
	}
	for i := 0; i < 128 && len(queuedOnA()) < 2; i++ {
		submitJobVia(t, front.URL, 50)
	}
	queued := queuedOnA()
	if len(queued) < 2 {
		t.Fatalf("could not queue 2 jobs on shard a, got %v", queued)
	}
	job1, job2 := queued[0], queued[1]

	// The crash script: the first DELETE (job1's handoff cancel) gets
	// through, then the shard drops off the network mid-handoff — job1's
	// origin cleanup and job2's cancel both fail.
	proxy.Injector().SetRules(chaos.Rule{Method: http.MethodDelete, After: 1, DropRate: 1})

	res, err := rt.Drain(context.Background(), "a")
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if res.HandedOff < 1 || res.Skipped < 1 {
		t.Fatalf("drain result %+v: want >=1 handed off (job1) and >=1 skipped (job2)", res)
	}

	// Now the origin is fully dead.
	proxy.Injector().SetRules(chaos.Rule{DropRate: 1})

	// job1 moved to b before the crash: reachable through the router, not
	// cancelled, despite the stale cancelled record stranded on a.
	j1, resp1 := getJobVia(t, front.URL, job1)
	if j1.State == "cancelled" {
		t.Fatalf("handed-off job %s reads as cancelled: %+v", job1, j1)
	}
	if got := resp1.Header.Get("X-NBody-Shard"); got != "b" {
		t.Fatalf("handed-off job %s served by shard %q, want b", job1, got)
	}

	// job2's only copy is on the dead shard — unreachable for now, but it
	// must come back. Crash the real stack and restart it over the same
	// job store behind the SAME router-visible address.
	closeShardStack(a)
	a2 := newDurableShard(t, "a", dir, gate)
	a2URL, err := url.Parse(a2.srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy.SetTarget(a2URL)
	proxy.Injector().SetRules() // network restored

	waitFor(t, 5*time.Second, "job2 reachable after origin restart", func() bool {
		resp, body := doReq(t, http.MethodGet, front.URL+"/v1/jobs/"+job2, nil)
		if resp.StatusCode != http.StatusOK {
			return false
		}
		var j jobInfo
		return json.Unmarshal(body, &j) == nil && j.State != "cancelled"
	})

	// The merged listing holds every job exactly once, preferring the
	// live copy of job1 over a's stranded cancelled record.
	resp, body := doReq(t, http.MethodGet, front.URL+"/v1/jobs", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list jobs: status %d body %s", resp.StatusCode, body)
	}
	var listing struct {
		Jobs       []jobInfo `json:"jobs"`
		Incomplete bool      `json:"incomplete"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if listing.Incomplete {
		t.Fatalf("listing incomplete with both shards healthy: %s", body)
	}
	seen := map[string]string{}
	for _, j := range listing.Jobs {
		if prev, dup := seen[j.ID]; dup {
			t.Fatalf("job %s listed twice (states %q and %q)", j.ID, prev, j.State)
		}
		seen[j.ID] = j.State
	}
	if st, ok := seen[job1]; !ok || st == "cancelled" {
		t.Fatalf("job1 %s in merged listing = %q, want present and not cancelled", job1, st)
	}
	if _, ok := seen[job2]; !ok {
		t.Fatalf("job2 %s missing from merged listing: %v", job2, seen)
	}
}
