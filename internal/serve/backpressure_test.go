package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"nbody/internal/simcfg"
)

// TestStepRetryAfterEstimate unit-tests the step-shed estimate: minimum
// with no samples, then hold × backlog / slots, clamped.
func TestStepRetryAfterEstimate(t *testing.T) {
	m := newTestManager(t, testConfig()) // StepSlots: 4

	if got := m.stepRetryAfter(); got != retryAfterMin {
		t.Errorf("stepRetryAfter with no samples = %d, want %d", got, retryAfterMin)
	}

	m.latMu.Lock()
	m.slotHoldMean = 10
	m.latMu.Unlock()
	// 10s hold × (0 waiting + 1) / 4 slots = 2.5 → ceil 3.
	if got := m.stepRetryAfter(); got != 3 {
		t.Errorf("stepRetryAfter with 10s hold = %d, want 3", got)
	}

	m.latMu.Lock()
	m.slotHoldMean = 1000
	m.latMu.Unlock()
	if got := m.stepRetryAfter(); got != retryAfterMax {
		t.Errorf("stepRetryAfter with huge hold = %d, want clamp %d", got, retryAfterMax)
	}
}

// TestStepSlotHoldObserved verifies stepping feeds the slot-hold EWMA that
// the estimate is derived from.
func TestStepSlotHoldObserved(t *testing.T) {
	m := newTestManager(t, testConfig())
	info, err := m.Create(context.Background(), plummerReq(32, 0, simcfg.Config{DT: 1e-3}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(context.Background(), info.ID, 3); err != nil {
		t.Fatal(err)
	}
	m.latMu.Lock()
	hold := m.slotHoldMean
	m.latMu.Unlock()
	if hold <= 0 {
		t.Fatalf("slotHoldMean after a step = %v, want > 0", hold)
	}
}

// TestStepShed429RetryAfterHeader is the end-to-end regression for the
// hard-coded "Retry-After: 1": with a held slot, a full queue and a seeded
// hold-time EWMA, the shed step's 429 must carry the load-derived value.
func TestStepShed429RetryAfterHeader(t *testing.T) {
	cfg := testConfig()
	cfg.StepSlots = 1
	cfg.MaxQueue = 1
	m, srv := newTestServer(t, cfg)

	var ids []string
	for i := 0; i < 3; i++ {
		info, err := m.Create(context.Background(), plummerReq(32, 0, simcfg.Config{DT: 1e-3}))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}

	// Pretend recent requests held their slot for 20s each.
	m.latMu.Lock()
	m.slotHoldMean = 20
	m.latMu.Unlock()

	// Occupy the only slot (stepHook blocks under the slot), then park a
	// second request in the queue, then shed a third.
	block := make(chan struct{}, 2)
	release := make(chan struct{})
	m.stepHook = func(*Session) {
		block <- struct{}{}
		<-release
	}
	defer close(release) // unblock held steps so shutdown can drain

	for i := 0; i < 2; i++ {
		go func(id string) {
			resp, err := http.Post(srv.URL+"/v1/sessions/"+id+"/step", "application/json", strings.NewReader(`{"steps":1}`))
			if err == nil {
				resp.Body.Close()
			}
		}(ids[i])
	}
	<-block // slot holder is inside a step
	waitUntil(t, 5*time.Second, "a request to queue for the slot", func() bool {
		return m.waiting.Load() >= 1
	})

	resp := postJSON(t, srv.URL+"/v1/sessions/"+ids[2]+"/step", `{"steps":1}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed step status = %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer", ra)
	}
	// 20s hold × (≥2 backlog) / 1 slot ≥ 40 → clamped to the 30s max;
	// anything ≤ 1 means the header regressed to the old constant.
	if secs != retryAfterMax {
		t.Errorf("Retry-After = %d, want %d (load-derived, clamped)", secs, retryAfterMax)
	}
}

// TestPipelinedShedRetryAfterParity is the regression for pipelined sheds
// hinting the 1-second floor regardless of backlog: a shed on the
// pipelined admission path must carry an errors.As-discoverable retry
// hint whose estimate counts the pipelined backlog beyond the executor's
// slot share — the same load-proportional figure the slot path computes.
func TestPipelinedShedRetryAfterParity(t *testing.T) {
	cfg := testConfig()
	cfg.StepSlots = 1
	cfg.MaxQueue = 2 // pipelined admission bound = slots + queue = 3
	m := newTestManager(t, cfg)

	info, err := m.Create(context.Background(), plummerReq(32, 0, simcfg.Config{DT: 1e-3, Pipeline: boolPtr(true)}))
	if err != nil {
		t.Fatal(err)
	}

	// Pretend recent runs each held the service for 4s and the pipelined
	// path is saturated at its bound.
	m.latMu.Lock()
	m.slotHoldMean = 4
	m.latMu.Unlock()
	m.pipelineActive.Store(3)
	defer m.pipelineActive.Store(0)

	_, err = m.Step(context.Background(), info.ID, 1)
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("step at the pipelined bound = %v, want ErrBusy", err)
	}
	var rh interface{ RetryAfterSeconds() int }
	if !errors.As(err, &rh) {
		t.Fatalf("pipelined shed error %v carries no errors.As-discoverable retry hint", err)
	}
	// 4s hold × (1 for the shed request + 2 pipelined runs beyond the one
	// slot) / 1 slot = 12 — not the old constant floor.
	if got := rh.RetryAfterSeconds(); got != 12 {
		t.Errorf("pipelined shed Retry-After = %d, want 12 (load-derived)", got)
	}
	// Parity: the slot path's estimator under the same load state hands
	// out the identical figure.
	if got, want := rh.RetryAfterSeconds(), m.stepRetryAfter(); got != want {
		t.Errorf("pipelined hint %d != slot-path estimate %d", got, want)
	}
}

// TestSessionShed429RetryAfterHeader: a create shed by the session cap
// advertises the LRU session's remaining idle TTL, not a constant.
func TestSessionShed429RetryAfterHeader(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSessions = 1
	cfg.IdleTTL = 20 * time.Second
	_, srv := newTestServer(t, cfg)

	resp := postJSON(t, srv.URL+"/v1/sessions", `{"workload":"plummer","n":32,"config":{"dt":0.001}}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d, want 201", resp.StatusCode)
	}

	resp = postJSON(t, srv.URL+"/v1/sessions", `{"workload":"plummer","n":32,"config":{"dt":0.001}}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap create status = %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer", resp.Header.Get("Retry-After"))
	}
	// The sole session just became idle, so the eviction horizon is its
	// full 20s TTL (give or take the test's own latency).
	if secs < 15 || secs > 20 {
		t.Errorf("Retry-After = %d, want ≈20 (remaining idle TTL)", secs)
	}
}

// noFlushWriter hides the ResponseRecorder's Flush and Unwrap so the
// handler sees a transport without streaming support.
type noFlushWriter struct {
	header http.Header
	status int
	body   strings.Builder
}

func (w *noFlushWriter) Header() http.Header { return w.header }
func (w *noFlushWriter) WriteHeader(s int)   { w.status = s }
func (w *noFlushWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(b)
}

// TestWatchWithoutFlusherFails: a watch over a non-flushable writer must
// fail loudly with the 500 envelope instead of silently buffering the
// whole stream.
func TestWatchWithoutFlusherFails(t *testing.T) {
	m := newTestManager(t, testConfig())
	h := NewHandler(m)
	info, err := m.Create(context.Background(), plummerReq(32, 0, simcfg.Config{DT: 1e-3}))
	if err != nil {
		t.Fatal(err)
	}

	w := &noFlushWriter{header: http.Header{}}
	req := httptest.NewRequest(http.MethodGet, "/v1/sessions/"+info.ID+"/watch?steps=2", nil)
	h.ServeHTTP(w, req)

	if w.status != http.StatusInternalServerError {
		t.Fatalf("watch without Flusher status = %d, want 500 (body %s)", w.status, w.body.String())
	}
	var e errorResponse
	if err := json.Unmarshal([]byte(w.body.String()), &e); err != nil {
		t.Fatalf("body is not the error envelope: %v (%s)", err, w.body.String())
	}
	if e.Error.Code != CodeInternal {
		t.Errorf("envelope code = %q, want %q", e.Error.Code, CodeInternal)
	}
	if info2, err := m.Get(info.ID); err != nil || info2.Steps != 0 {
		t.Errorf("session advanced to %d steps behind a dead stream, want 0 (err %v)", info2.Steps, err)
	}
}

// TestWatchHeartbeat: when steps are slower than the heartbeat interval
// the stream carries ": heartbeat" comment lines between events, so
// watchers can tell a slow server from a dead one.
func TestWatchHeartbeat(t *testing.T) {
	cfg := testConfig()
	m, srv := newTestServer(t, cfg)
	m.stepHook = func(*Session) { time.Sleep(250 * time.Millisecond) }

	info, err := m.Create(context.Background(), plummerReq(32, 0, simcfg.Config{DT: 1e-3}))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/sessions/" + info.ID + "/watch?steps=2&heartbeat=50ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch status = %d, want 200", resp.StatusCode)
	}
	body, err := readAll(resp)
	if err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	var events, heartbeats int
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "":
		case strings.HasPrefix(line, ":"):
			heartbeats++
		default:
			var ev WatchEvent
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("non-comment line is not an event: %v (%s)", err, line)
			}
			events++
		}
	}
	if events != 2 {
		t.Errorf("events = %d, want 2 (body %q)", events, body)
	}
	if heartbeats == 0 {
		t.Errorf("no heartbeat lines in a stream with 250ms steps and a 50ms interval (body %q)", body)
	}
}

// TestWatchHeartbeatParamValidation rejects malformed heartbeat overrides.
func TestWatchHeartbeatParamValidation(t *testing.T) {
	m, srv := newTestServer(t, testConfig())
	info, err := m.Create(context.Background(), plummerReq(32, 0, simcfg.Config{DT: 1e-3}))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"heartbeat=banana", "heartbeat=-1s", "heartbeat=0"} {
		resp, err := http.Get(srv.URL + "/v1/sessions/" + info.ID + "/watch?steps=1&" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("watch?%s status = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestListPageEvictedCursor: a cursor naming a session that has since
// been deleted (evicted, failed, cleaned up) must resume at the next
// surviving ID rather than erroring or restarting.
func TestListPageEvictedCursor(t *testing.T) {
	m := newTestManager(t, testConfig())
	var ids []string
	for i := 0; i < 4; i++ {
		info, err := m.Create(context.Background(), plummerReq(32, 0, simcfg.Config{DT: 1e-3}))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}

	page, cursor, err := m.ListPage(2, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 2 || cursor != ids[1] {
		t.Fatalf("first page = %d rows cursor %q, want 2 rows cursor %q", len(page), cursor, ids[1])
	}

	// The cursor session AND the next one vanish between pages.
	for _, id := range []string{ids[1], ids[2]} {
		if err := m.Delete(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}

	page, next, err := m.ListPage(2, cursor)
	if err != nil {
		t.Fatalf("ListPage with evicted cursor: %v", err)
	}
	if len(page) != 1 || page[0].ID != ids[3] {
		got := make([]string, len(page))
		for i, s := range page {
			got[i] = s.ID
		}
		t.Fatalf("page after evicted cursor = %v, want [%s]", got, ids[3])
	}
	if next != "" {
		t.Errorf("nextCursor = %q, want \"\" on the final page", next)
	}
}
