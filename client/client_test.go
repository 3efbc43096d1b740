package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestClient builds a Client against srv with deterministic rand and a
// recording sleep seam.
func newTestClient(t *testing.T, srv *httptest.Server, opts ...Option) (*Client, *[]time.Duration) {
	t.Helper()
	c, err := New(srv.URL, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var sleeps []time.Duration
	c.rand = func() float64 { return 0.5 }
	c.sleep = func(ctx context.Context, d time.Duration) error {
		sleeps = append(sleeps, d)
		return nil
	}
	return c, &sleeps
}

func writeEnvelope(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, `{"error":{"code":%q,"message":%q}}`, code, msg)
}

// TestRetryHonorsRetryAfter: a 429 with Retry-After must be retried after
// exactly the advertised wait, not the client's own backoff.
func TestRetryHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "7")
			writeEnvelope(w, http.StatusTooManyRequests, CodeOverloaded, "shed")
			return
		}
		json.NewEncoder(w).Encode(Session{ID: "s-1", Steps: 3})
	}))
	defer srv.Close()

	c, sleeps := newTestClient(t, srv)
	s, err := c.Session(context.Background(), "s-1")
	if err != nil {
		t.Fatalf("Session after retries: %v", err)
	}
	if s.ID != "s-1" || s.Steps != 3 {
		t.Errorf("decoded session = %+v", s)
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d calls, want 3", calls.Load())
	}
	want := []time.Duration{7 * time.Second, 7 * time.Second}
	if len(*sleeps) != len(want) || (*sleeps)[0] != want[0] || (*sleeps)[1] != want[1] {
		t.Errorf("sleeps = %v, want %v", *sleeps, want)
	}
}

// TestRetryAfterCapped: a hostile Retry-After cannot park the client
// beyond the cap.
func TestRetryAfterCapped(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "9999")
			writeEnvelope(w, http.StatusTooManyRequests, CodeOverloaded, "shed")
			return
		}
		json.NewEncoder(w).Encode(Session{ID: "s-1"})
	}))
	defer srv.Close()

	c, sleeps := newTestClient(t, srv)
	if _, err := c.Session(context.Background(), "s-1"); err != nil {
		t.Fatal(err)
	}
	if len(*sleeps) != 1 || (*sleeps)[0] != maxHonoredRetryAfter {
		t.Errorf("sleeps = %v, want [%v]", *sleeps, maxHonoredRetryAfter)
	}
}

// TestRetryWithoutRetryAfterUsesJitteredBackoff: no header → exponential
// backoff with full jitter (rand seam pinned at 0.5).
func TestRetryWithoutRetryAfterUsesJitteredBackoff(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			writeEnvelope(w, http.StatusServiceUnavailable, CodeShuttingDown, "draining")
			return
		}
		json.NewEncoder(w).Encode(Session{ID: "s-1"})
	}))
	defer srv.Close()

	c, sleeps := newTestClient(t, srv, WithRetries(3, 100*time.Millisecond, 5*time.Second))
	if _, err := c.Session(context.Background(), "s-1"); err != nil {
		t.Fatal(err)
	}
	// 0.5 × 100ms, then 0.5 × 200ms.
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond}
	if len(*sleeps) != 2 || (*sleeps)[0] != want[0] || (*sleeps)[1] != want[1] {
		t.Errorf("sleeps = %v, want %v", *sleeps, want)
	}
}

// TestRetriesDisabledSurfacesShed: WithRetries(0,...) must deliver the
// 429 to the caller immediately, with the parsed Retry-After attached.
func TestRetriesDisabledSurfacesShed(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "12")
		writeEnvelope(w, http.StatusTooManyRequests, CodeOverloaded, "shed")
	}))
	defer srv.Close()

	c, sleeps := newTestClient(t, srv, WithRetries(0, 0, 0))
	_, err := c.Session(context.Background(), "s-1")
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if !ae.Overloaded() || !IsOverloaded(err) {
		t.Errorf("Overloaded() false for %+v", ae)
	}
	if ae.RetryAfter != 12*time.Second {
		t.Errorf("RetryAfter = %v, want 12s", ae.RetryAfter)
	}
	if calls.Load() != 1 || len(*sleeps) != 0 {
		t.Errorf("calls = %d sleeps = %v, want exactly one call and no sleeps", calls.Load(), *sleeps)
	}
}

// TestRetryBudgetExhausted: a server that sheds forever yields the last
// APIError after maxRetries+1 attempts.
func TestRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeEnvelope(w, http.StatusTooManyRequests, CodeOverloaded, "shed")
	}))
	defer srv.Close()

	c, _ := newTestClient(t, srv, WithRetries(2, time.Millisecond, time.Millisecond))
	_, err := c.Session(context.Background(), "s-1")
	if !IsOverloaded(err) {
		t.Fatalf("err = %v, want overloaded", err)
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d calls, want 3 (1 + 2 retries)", calls.Load())
	}
}

// TestEnvelopeDecoding decodes every documented envelope code into the
// matching APIError fields.
func TestEnvelopeDecoding(t *testing.T) {
	cases := []struct {
		code   string
		status int
	}{
		{CodeSessionNotFound, http.StatusNotFound},
		{CodeSessionFailed, http.StatusUnprocessableEntity},
		{CodeSessionBusy, http.StatusConflict},
		{CodeOverloaded, http.StatusTooManyRequests},
		{CodeShuttingDown, http.StatusServiceUnavailable},
		{CodeInvalidRequest, http.StatusBadRequest},
		{CodeInvalidConfig, http.StatusBadRequest},
		{CodeInvalidSnapshot, http.StatusUnprocessableEntity},
		{CodeClientClosed, 499},
		{CodeInternal, http.StatusInternalServerError},
		{CodeJobNotFound, http.StatusNotFound},
		{CodeJobNotReady, http.StatusConflict},
	}
	var status atomic.Int32
	var code atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Request-ID", "req-42")
		writeEnvelope(w, int(status.Load()), code.Load().(string), "boom")
	}))
	defer srv.Close()

	c, _ := newTestClient(t, srv, WithRetries(0, 0, 0))
	for _, tc := range cases {
		t.Run(tc.code, func(t *testing.T) {
			status.Store(int32(tc.status))
			code.Store(tc.code)
			_, err := c.Session(context.Background(), "x")
			var ae *APIError
			if !errors.As(err, &ae) {
				t.Fatalf("err = %v, want *APIError", err)
			}
			if ae.Code != tc.code || ae.Status != tc.status {
				t.Errorf("decoded (%q, %d), want (%q, %d)", ae.Code, ae.Status, tc.code, tc.status)
			}
			if ae.Message != "boom" || ae.RequestID != "req-42" {
				t.Errorf("message/request-id = %q/%q", ae.Message, ae.RequestID)
			}
			if ErrorCode(err) != tc.code {
				t.Errorf("ErrorCode = %q", ErrorCode(err))
			}
		})
	}
}

// TestNonEnvelopeErrorFallsBack: a plain-text error body still yields a
// useful APIError.
func TestNonEnvelopeErrorFallsBack(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "gateway exploded", http.StatusBadGateway)
	}))
	defer srv.Close()

	c, _ := newTestClient(t, srv, WithRetries(0, 0, 0))
	_, err := c.Session(context.Background(), "x")
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if ae.Status != http.StatusBadGateway || ae.Code != "" || ae.Message != "gateway exploded" {
		t.Errorf("APIError = %+v", ae)
	}
}

// TestStepPartialResult: an interrupted step's envelope carries the
// partial progress; Step must surface it in the returned result.
func TestStepPartialResult(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"error":{"code":"shutting_down","message":"draining"},`+
			`"result":{"id":"s-1","requested":100,"completed":42,"steps":42,"interrupted":true}}`)
	}))
	defer srv.Close()

	c, _ := newTestClient(t, srv, WithRetries(0, 0, 0))
	res, err := c.Step(context.Background(), "s-1", 100)
	if err == nil {
		t.Fatal("Step = nil error, want shutting_down")
	}
	if ErrorCode(err) != CodeShuttingDown {
		t.Errorf("code = %q, want shutting_down", ErrorCode(err))
	}
	if res.Completed != 42 || !res.Interrupted {
		t.Errorf("partial result = %+v, want completed 42 interrupted", res)
	}
}

// TestSessionsIteratorFollowsCursor: the range iterator walks every page.
func TestSessionsIteratorFollowsCursor(t *testing.T) {
	pages := map[string]string{
		"":    `{"sessions":[{"id":"s-1"},{"id":"s-2"}],"next_cursor":"s-2"}`,
		"s-2": `{"sessions":[{"id":"s-3"}],"next_cursor":""}`,
	}
	var cursors []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur := r.URL.Query().Get("cursor")
		cursors = append(cursors, cur)
		io.WriteString(w, pages[cur])
	}))
	defer srv.Close()

	c, _ := newTestClient(t, srv)
	var ids []string
	for s, err := range c.Sessions(context.Background(), 2) {
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID)
	}
	if len(ids) != 3 || ids[0] != "s-1" || ids[2] != "s-3" {
		t.Errorf("ids = %v, want [s-1 s-2 s-3]", ids)
	}
	if len(cursors) != 2 || cursors[1] != "s-2" {
		t.Errorf("cursors = %v, want [\"\" s-2]", cursors)
	}
}

// watchFake serves the session-info endpoint plus scripted watch
// responses, recording each watch request's steps parameter.
type watchFake struct {
	sessionSteps int
	scripts      []func(w http.ResponseWriter, r *http.Request)
	watchCalls   atomic.Int32
	mu           sync.Mutex
	stepsSeen    []string
}

func (f *watchFake) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(Session{ID: r.PathValue("id"), Steps: f.sessionSteps})
	})
	mux.HandleFunc("GET /v1/sessions/{id}/watch", func(w http.ResponseWriter, r *http.Request) {
		n := int(f.watchCalls.Add(1)) - 1
		f.mu.Lock()
		f.stepsSeen = append(f.stepsSeen, r.URL.Query().Get("steps"))
		f.mu.Unlock()
		if n < len(f.scripts) {
			f.scripts[n](w, r)
			return
		}
		http.Error(w, "unexpected watch call", http.StatusInternalServerError)
	})
	return mux
}

func ndjson(w http.ResponseWriter, lines ...string) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	fl := w.(http.Flusher)
	for _, ln := range lines {
		io.WriteString(w, ln+"\n")
		fl.Flush()
	}
}

// TestWatchReconnectMidStream: a stream that dies after 3 of 6 events must
// be re-established asking for exactly the remaining 3 steps, and the
// caller sees all 6 events exactly once.
func TestWatchReconnectMidStream(t *testing.T) {
	f := &watchFake{}
	f.scripts = []func(http.ResponseWriter, *http.Request){
		func(w http.ResponseWriter, r *http.Request) {
			ndjson(w,
				`{"step":1}`,
				`{"step":2}`,
				`{"step":3}`,
			) // connection ends early: 3 of 6 steps delivered
		},
		func(w http.ResponseWriter, r *http.Request) {
			ndjson(w,
				`{"step":4}`,
				`{"step":5}`,
				`{"step":6}`,
			)
		},
	}
	srv := httptest.NewServer(f.handler())
	defer srv.Close()

	c, _ := newTestClient(t, srv)
	var steps []int
	for ev, err := range c.WatchEvents(context.Background(), "s-1", WatchOptions{Steps: 6}) {
		if err != nil {
			t.Fatalf("after %v: %v", steps, err)
		}
		steps = append(steps, ev.Step)
	}
	if len(steps) != 6 || steps[0] != 1 || steps[5] != 6 {
		t.Fatalf("steps = %v, want 1..6", steps)
	}
	if f.watchCalls.Load() != 2 {
		t.Fatalf("watch calls = %d, want 2", f.watchCalls.Load())
	}
	if f.stepsSeen[0] != "6" || f.stepsSeen[1] != "3" {
		t.Errorf("watch steps params = %v, want [6 3] (reconnect must ask only for the remainder)", f.stepsSeen)
	}
}

// TestWatchSkipsHeartbeats: comment and blank lines are transparent to
// the event stream.
func TestWatchSkipsHeartbeats(t *testing.T) {
	f := &watchFake{}
	f.scripts = []func(http.ResponseWriter, *http.Request){
		func(w http.ResponseWriter, r *http.Request) {
			ndjson(w,
				`: heartbeat`,
				`{"step":1}`,
				``,
				`: heartbeat`,
				`{"step":2}`,
			)
		},
	}
	srv := httptest.NewServer(f.handler())
	defer srv.Close()

	c, _ := newTestClient(t, srv)
	var steps []int
	for ev, err := range c.WatchEvents(context.Background(), "s-1", WatchOptions{Steps: 2}) {
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, ev.Step)
	}
	if len(steps) != 2 || steps[0] != 1 || steps[1] != 2 {
		t.Errorf("steps = %v, want [1 2]", steps)
	}
}

// TestWatchMidStreamEnvelopeIsTerminal: an error record inside the stream
// ends the watch with the decoded APIError — no reconnect.
func TestWatchMidStreamEnvelopeIsTerminal(t *testing.T) {
	f := &watchFake{}
	f.scripts = []func(http.ResponseWriter, *http.Request){
		func(w http.ResponseWriter, r *http.Request) {
			ndjson(w,
				`{"step":1}`,
				`{"error":{"code":"session_failed","message":"non-finite state","session_state":"failed"}}`,
			)
		},
	}
	srv := httptest.NewServer(f.handler())
	defer srv.Close()

	c, _ := newTestClient(t, srv)
	var steps []int
	var lastErr error
	for ev, err := range c.WatchEvents(context.Background(), "s-1", WatchOptions{Steps: 5}) {
		if err != nil {
			lastErr = err
			break
		}
		steps = append(steps, ev.Step)
	}
	if len(steps) != 1 {
		t.Fatalf("steps = %v, want [1]", steps)
	}
	var ae *APIError
	if !errors.As(lastErr, &ae) || ae.Code != CodeSessionFailed || ae.SessionState != "failed" {
		t.Fatalf("terminal err = %v, want session_failed envelope", lastErr)
	}
	if f.watchCalls.Load() != 1 {
		t.Errorf("watch calls = %d, want 1 (mid-stream envelope must not trigger reconnect)", f.watchCalls.Load())
	}
}

// TestWatchReconnectBudget: a server that always truncates eventually
// exhausts the reconnect budget and fails.
func TestWatchReconnectBudget(t *testing.T) {
	var calls atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(Session{ID: "s-1", Steps: 0})
	})
	mux.HandleFunc("GET /v1/sessions/{id}/watch", func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		ndjson(w, `{"step":1}`) // always truncates after step 1
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c, _ := newTestClient(t, srv)
	var lastErr error
	for _, err := range c.WatchEvents(context.Background(), "s-1", WatchOptions{Steps: 5, MaxReconnects: 2}) {
		if err != nil {
			lastErr = err
		}
	}
	if lastErr == nil {
		t.Fatal("watch of an always-truncating server succeeded")
	}
	if calls.Load() != 3 {
		t.Errorf("watch calls = %d, want 3 (initial + 2 reconnects)", calls.Load())
	}
}

// TestCancelJobForms covers both DELETE /v1/jobs/{id} outcomes.
func TestCancelJobForms(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodDelete {
			t.Errorf("method = %s", r.Method)
		}
		switch r.URL.Path {
		case "/v1/jobs/j-1":
			json.NewEncoder(w).Encode(Job{ID: "j-1", State: JobCancelled})
		case "/v1/jobs/j-2":
			w.WriteHeader(http.StatusNoContent)
		default:
			writeEnvelope(w, http.StatusNotFound, CodeJobNotFound, "no such job")
		}
	}))
	defer srv.Close()

	c, _ := newTestClient(t, srv)
	j, deleted, err := c.CancelJob(context.Background(), "j-1")
	if err != nil || deleted || j.State != JobCancelled {
		t.Errorf("cancel running: job %+v deleted %v err %v", j, deleted, err)
	}
	_, deleted, err = c.CancelJob(context.Background(), "j-2")
	if err != nil || !deleted {
		t.Errorf("cancel terminal: deleted %v err %v", deleted, err)
	}
	_, _, err = c.CancelJob(context.Background(), "j-3")
	if !IsNotFound(err) {
		t.Errorf("cancel missing: err %v, want job_not_found", err)
	}
}

// TestWaitJobPollsToTerminal drives WaitJob across queued → running →
// succeeded.
func TestWaitJobPollsToTerminal(t *testing.T) {
	states := []string{JobQueued, JobRunning, JobSucceeded}
	var call atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := min(int(call.Add(1))-1, len(states)-1)
		json.NewEncoder(w).Encode(Job{ID: "j-1", State: states[i]})
	}))
	defer srv.Close()

	c, _ := newTestClient(t, srv)
	j, err := c.WaitJob(context.Background(), "j-1", time.Millisecond)
	if err != nil || j.State != JobSucceeded {
		t.Fatalf("WaitJob = %+v, %v", j, err)
	}
	if call.Load() != 3 {
		t.Errorf("polled %d times, want 3", call.Load())
	}
}

// TestBaseURLValidation rejects unusable base URLs and trims slashes.
func TestBaseURLValidation(t *testing.T) {
	if _, err := New(""); err == nil {
		t.Error("New(\"\") succeeded")
	}
	c, err := New("http://example.test/")
	if err != nil {
		t.Fatal(err)
	}
	if c.BaseURL() != "http://example.test" {
		t.Errorf("BaseURL = %q", c.BaseURL())
	}
}

// TestRetryGatewayErrors: 502 and 504 — what a sharded deployment's
// router emits when a hop to a shard breaks — are transient and must be
// retried like 503 on idempotent GETs, honoring Retry-After when
// present.
func TestRetryGatewayErrors(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "2")
			writeEnvelope(w, http.StatusBadGateway, CodeBadGateway, "shard hop broke")
		case 2:
			writeEnvelope(w, http.StatusGatewayTimeout, "gateway_timeout", "shard slow")
		default:
			json.NewEncoder(w).Encode(Session{ID: "s-1", Steps: 3})
		}
	}))
	defer srv.Close()

	c, sleeps := newTestClient(t, srv)
	s, err := c.Session(context.Background(), "s-1")
	if err != nil {
		t.Fatalf("Session after gateway-error retries: %v", err)
	}
	if s.ID != "s-1" {
		t.Errorf("decoded session = %+v", s)
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d calls, want 3", calls.Load())
	}
	if len(*sleeps) != 2 || (*sleeps)[0] != 2*time.Second {
		t.Errorf("sleeps = %v, want [2s, <backoff>]", *sleeps)
	}
}

// TestGatewayErrorsNotRetriedOnWrite: a 502 on a non-idempotent request
// surfaces immediately — the router emits 502 exactly when a write may
// have reached the shard, so re-sending could double-apply it (step the
// simulation twice, duplicate a job submit). 503 stays retryable for
// writes: the router sheds those before forwarding anything.
func TestGatewayErrorsNotRetriedOnWrite(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeEnvelope(w, http.StatusBadGateway, CodeBadGateway, "shard hop broke")
	}))
	defer srv.Close()

	c, sleeps := newTestClient(t, srv)
	_, err := c.Step(context.Background(), "s-1", 1)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadGateway || ae.Code != CodeBadGateway {
		t.Fatalf("step through broken gateway: %v, want 502 bad_gateway APIError", err)
	}
	if calls.Load() != 1 {
		t.Errorf("server saw %d calls, want 1 (a write must not be re-sent on 502)", calls.Load())
	}
	if len(*sleeps) != 0 {
		t.Errorf("client slept %v before surfacing a non-retryable 502", *sleeps)
	}
}

// TestAPIErrorShard: the shard that produced an error is decoded from the
// envelope, falling back to the X-NBody-Shard header when the envelope
// omits it.
func TestAPIErrorShard(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-NBody-Shard", "b")
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case "/v1/sessions/envelope":
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":{"code":"shard_unavailable","message":"down","shard":"a"}}`)
		default:
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":{"code":"session_not_found","message":"nope"}}`)
		}
	}))
	defer srv.Close()

	c, _ := newTestClient(t, srv, WithRetries(0, 0, 0))
	_, err := c.Session(context.Background(), "envelope")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Shard != "a" {
		t.Fatalf("envelope shard: err %v, want APIError with Shard a", err)
	}
	_, err = c.Session(context.Background(), "header-only")
	if !errors.As(err, &apiErr) || apiErr.Shard != "b" {
		t.Fatalf("header-fallback shard: err %v, want APIError with Shard b", err)
	}
}

// TestReprioritizeJob: the SDK PATCHes the job with the new class and
// decodes the updated record.
func TestReprioritizeJob(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPatch || r.URL.Path != "/v1/jobs/j-1" {
			t.Errorf("server saw %s %s, want PATCH /v1/jobs/j-1", r.Method, r.URL.Path)
		}
		var req struct {
			Class string `json:"class"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Class != "high" {
			t.Errorf("reprioritize body class %q (err %v), want high", req.Class, err)
		}
		json.NewEncoder(w).Encode(Job{ID: "j-1", State: JobQueued, Class: "high"})
	}))
	defer srv.Close()

	c, _ := newTestClient(t, srv, WithRetries(0, 0, 0))
	j, err := c.ReprioritizeJob(context.Background(), "j-1", "high")
	if err != nil {
		t.Fatal(err)
	}
	if j.Class != "high" || j.State != JobQueued {
		t.Fatalf("reprioritized job = %+v", j)
	}
}

// TestRetrySleepAbortsOnCancel pins the resilience contract of the real
// sleepContext seam: a shed response advertising a long Retry-After must
// not park a cancelled caller — the backoff aborts as soon as the
// context dies, and no further attempt is sent.
func TestRetrySleepAbortsOnCancel(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "30")
		writeEnvelope(w, http.StatusServiceUnavailable, CodeShuttingDown, "draining")
	}))
	defer srv.Close()

	c, err := New(srv.URL, WithRetries(5, time.Millisecond, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, gerr := c.Session(ctx, "s-1")
	if gerr == nil || !errors.Is(gerr, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", gerr)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancelled retry slept %v — backoff ignored the context", elapsed)
	}
	if calls.Load() != 1 {
		t.Errorf("server saw %d calls after cancel, want 1", calls.Load())
	}
}

// TestWaitJobAbortsOnCancel: the poll sleep between job fetches must
// abort promptly when the context dies, even with a long poll interval.
func TestWaitJobAbortsOnCancel(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(Job{ID: "j-1", State: "running"})
	}))
	defer srv.Close()

	c, err := New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, werr := c.WaitJob(ctx, "j-1", time.Hour); !errors.Is(werr, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", werr)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancelled WaitJob blocked %v", elapsed)
	}
}

// TestDeadlineHeaderStamped: a context deadline travels upstream as the
// X-NBody-Deadline remaining-budget header on both the buffered and the
// streaming request paths; without a deadline the header is absent.
func TestDeadlineHeaderStamped(t *testing.T) {
	var mu sync.Mutex
	headers := map[string]string{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		headers[r.URL.Path] = r.Header.Get("X-NBody-Deadline")
		mu.Unlock()
		if r.URL.Path == "/v1/sessions/s-1/trace" {
			io.WriteString(w, "step,energy\n")
			return
		}
		json.NewEncoder(w).Encode(Session{ID: "s-1"})
	}))
	defer srv.Close()

	c, _ := newTestClient(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Session(ctx, "s-1"); err != nil {
		t.Fatal(err)
	}
	rc, err := c.SessionTrace(ctx, "s-1")
	if err != nil {
		t.Fatal(err)
	}
	rc.Close()
	if _, err := c.Session(context.Background(), "s-1"); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	d, perr := time.ParseDuration(headers["/v1/sessions/s-1/trace"])
	if perr != nil || d <= 0 || d > 5*time.Second {
		t.Errorf("trace deadline header = %q, want a duration in (0, 5s]", headers["/v1/sessions/s-1/trace"])
	}
	if got := headers["/v1/sessions/s-1"]; got != "" {
		t.Errorf("deadline header without a context deadline = %q, want empty", got)
	}
}
