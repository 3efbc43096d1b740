package chaos_test

// End-to-end resilience suite: real serve+jobs stacks behind a real
// router, with one shard fronted by the chaos proxy. Each test drives a
// production failure mode through the full router → shard path and
// asserts the client-visible contract: requests never outlive their
// deadline, breakers shed and recover, hedged reads beat a slow
// replica, and listings degrade to "incomplete" instead of failing.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"nbody/internal/chaos"
	"nbody/internal/jobs"
	"nbody/internal/obs"
	"nbody/internal/router"
	"nbody/internal/serve"
)

// stack is one in-process shard: session manager + job queue on an
// httptest server.
type stack struct {
	name string
	m    *serve.Manager
	jm   *jobs.Manager
	srv  *httptest.Server
}

// gatedRunner pins StepSession until the gate closes, keeping jobs
// queued/running deterministically.
type gatedRunner struct {
	jobs.Runner
	gate chan struct{}
}

func (g gatedRunner) StepSession(ctx context.Context, id string, n int) (int, error) {
	select {
	case <-g.gate:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	return g.Runner.StepSession(ctx, id, n)
}

func newStack(t *testing.T, name string, gate chan struct{}) *stack {
	t.Helper()
	ob := obs.Nop()
	m, err := serve.NewManager(serve.Config{
		MaxSessions: 64, MaxBodies: 100_000, IdleTTL: time.Minute,
		ShardID: name, Obs: ob,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	var runner jobs.Runner = serve.NewJobRunner(m)
	if gate != nil {
		runner = gatedRunner{runner, gate}
	}
	jm, err := jobs.NewManager(jobs.Config{
		Runner: runner, Workers: 2, RetryBase: time.Millisecond,
		ShardID: name, Obs: ob,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		jm.Close(ctx)
	})
	srv := httptest.NewServer(serve.NewHandlerWithJobs(m, jm))
	t.Cleanup(srv.Close)
	return &stack{name: name, m: m, jm: jm, srv: srv}
}

// chaosFront interposes a chaos proxy in front of s.
func chaosFront(t *testing.T, s *stack, seed uint64) (*chaos.Proxy, *httptest.Server) {
	t.Helper()
	target, err := url.Parse(s.srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	p := chaos.NewProxy(target, chaos.New(seed))
	front := httptest.NewServer(p)
	t.Cleanup(front.Close)
	return p, front
}

// newRouter fronts the given name→URL shard entries with a Router.
func newRouter(t *testing.T, cfg router.Config, entries ...router.ShardConfig) *httptest.Server {
	t.Helper()
	cfg.Shards = entries
	rt, err := router.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return front
}

func doReq(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func envelopeCode(t *testing.T, body []byte) string {
	t.Helper()
	var e struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("decoding error envelope %q: %v", body, err)
	}
	return e.Error.Code
}

// createSessionOn places sessions through the router until one lands on
// the wanted shard, returning its ID.
func createSessionOn(t *testing.T, frontURL, want string) string {
	t.Helper()
	for i := 0; i < 64; i++ {
		resp, body := doReq(t, http.MethodPost, frontURL+"/v1/sessions",
			map[string]any{"workload": "plummer", "n": 64, "config": map[string]any{"dt": 1e-3}})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create session: status %d body %s", resp.StatusCode, body)
		}
		var info struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if resp.Header.Get("X-NBody-Shard") == want {
			return info.ID
		}
	}
	t.Fatalf("no session landed on shard %s in 64 placements", want)
	return ""
}

// metricValue scrapes one plain (unlabeled) counter/gauge from the
// router's /metrics exposition.
func metricValue(t *testing.T, frontURL, name string) float64 {
	t.Helper()
	resp, body := doReq(t, http.MethodGet, frontURL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, name+" ") && !strings.HasPrefix(line, name+"{") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parsing metric line %q: %v", line, err)
		}
		return v
	}
	return 0
}

// TestE2EDeadlineBoundsSlowShard: a shard 5s slower than the router's
// 300ms proxy timeout must fail requests with 504 deadline_exceeded well
// within the injected latency — and must leave no half-applied work.
func TestE2EDeadlineBoundsSlowShard(t *testing.T) {
	a := newStack(t, "a", nil)
	b := newStack(t, "b", nil)
	p, aFront := chaosFront(t, a, 1)
	front := newRouter(t,
		router.Config{ProbeInterval: time.Hour, ProxyTimeout: 300 * time.Millisecond},
		router.ShardConfig{Name: "a", URL: aFront.URL},
		router.ShardConfig{Name: "b", URL: b.srv.URL},
	)

	id := createSessionOn(t, front.URL, "a")
	p.Injector().SetRules(chaos.Rule{Latency: 5 * time.Second})

	// The write path: step the slow shard's session.
	start := time.Now()
	resp, body := doReq(t, http.MethodPost, front.URL+"/v1/sessions/"+id+"/step",
		map[string]any{"steps": 5})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("step on slow shard: status %d body %s", resp.StatusCode, body)
	}
	if got := envelopeCode(t, body); got != "deadline_exceeded" {
		t.Fatalf("error code %q, want deadline_exceeded", got)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("request outlived its 300ms budget by far: %v", elapsed)
	}

	// The step never reached the shard inside the budget: zero applied.
	info, err := a.m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Steps != 0 {
		t.Fatalf("session advanced %d steps behind an expired deadline", info.Steps)
	}

	// The read path walks on past the slow shard — but this ID only lives
	// there, so the walk itself must die at the budget, not hang.
	start = time.Now()
	resp, body = doReq(t, http.MethodGet, front.URL+"/v1/sessions/"+id, nil)
	if resp.StatusCode != http.StatusGatewayTimeout && resp.StatusCode != http.StatusNotFound {
		t.Fatalf("read on slow shard: status %d body %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("read outlived its budget: %v", elapsed)
	}
	if v := metricValue(t, front.URL, "nbody_router_deadline_expired_total"); v < 1 {
		t.Errorf("nbody_router_deadline_expired_total = %v, want >= 1", v)
	}
}

// TestE2EBreakerShedsAndRecovers: consecutive 500s from a shard open its
// breaker — writes shed 503 with Retry-After instead of paying the
// round-trip — and after the fault clears plus one cooldown, a trial
// request closes the circuit. Work applies exactly once throughout.
func TestE2EBreakerShedsAndRecovers(t *testing.T) {
	a := newStack(t, "a", nil)
	b := newStack(t, "b", nil)
	p, aFront := chaosFront(t, a, 2)
	front := newRouter(t,
		router.Config{
			ProbeInterval: time.Hour, ProxyTimeout: 2 * time.Second,
			BreakerFailures: 3, BreakerCooldown: 200 * time.Millisecond,
		},
		router.ShardConfig{Name: "a", URL: aFront.URL},
		router.ShardConfig{Name: "b", URL: b.srv.URL},
	)

	id := createSessionOn(t, front.URL, "a")
	p.Injector().SetRules(chaos.Rule{ErrorRate: 1, ErrorCode: 500})

	// Three straight 500s trip the breaker.
	for i := 0; i < 3; i++ {
		resp, _ := doReq(t, http.MethodGet, front.URL+"/v1/sessions/"+id, nil)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("GET %d: status %d, want the relayed 500", i, resp.StatusCode)
		}
	}
	breakerOf := func() string {
		_, body := doReq(t, http.MethodGet, front.URL+"/v1/shards", nil)
		var out struct {
			Shards []struct {
				Name    string `json:"name"`
				Breaker string `json:"breaker"`
			} `json:"shards"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		for _, s := range out.Shards {
			if s.Name == "a" {
				return s.Breaker
			}
		}
		return ""
	}
	if got := breakerOf(); got != "open" {
		t.Fatalf("breaker state %q after 3 failures, want open", got)
	}

	// Writes to the broken shard shed immediately: 503 + Retry-After.
	resp, body := doReq(t, http.MethodPost, front.URL+"/v1/sessions/"+id+"/step",
		map[string]any{"steps": 2})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write behind open breaker: status %d body %s", resp.StatusCode, body)
	}
	if got := envelopeCode(t, body); got != "shard_unavailable" {
		t.Fatalf("error code %q, want shard_unavailable", got)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 shed without Retry-After")
	}
	if v := metricValue(t, front.URL, "nbody_router_breaker_opens_total"); v < 1 {
		t.Errorf("nbody_router_breaker_opens_total = %v, want >= 1", v)
	}

	// Fault clears; after the cooldown the next request is the trial and
	// closes the circuit.
	p.Injector().SetRules()
	time.Sleep(250 * time.Millisecond)
	resp, body = doReq(t, http.MethodGet, front.URL+"/v1/sessions/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trial after recovery: status %d body %s", resp.StatusCode, body)
	}
	if got := breakerOf(); got != "closed" {
		t.Fatalf("breaker state %q after successful trial, want closed", got)
	}

	// Exactly-once: the shed write never applied; this one applies once.
	resp, body = doReq(t, http.MethodPost, front.URL+"/v1/sessions/"+id+"/step",
		map[string]any{"steps": 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("step after recovery: status %d body %s", resp.StatusCode, body)
	}
	info, err := a.m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Steps != 3 {
		t.Fatalf("session stepped %d, want exactly 3 (the shed write must not apply)", info.Steps)
	}
}

// TestE2EHedgedReadBeatsSlowShard: a handed-off job whose ring owner is
// slow (but alive) must be answered by the hedge sent to the successor
// in well under the owner's injected latency.
func TestE2EHedgedReadBeatsSlowShard(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	a := newStack(t, "a", gate) // gated: its jobs stay queued
	b := newStack(t, "b", nil)
	p, aFront := chaosFront(t, a, 3)
	front := newRouter(t,
		router.Config{
			ProbeInterval: time.Hour, ProxyTimeout: 10 * time.Second,
			HedgeAfter: 30 * time.Millisecond, CacheSize: 1,
		},
		router.ShardConfig{Name: "a", URL: aFront.URL},
		router.ShardConfig{Name: "b", URL: b.srv.URL},
	)

	// Queue a job on a (its gated workers saturate, later arrivals queue),
	// then drain a so the queued job hands off to b.
	queuedOnA := func() string {
		for _, j := range a.jm.List() {
			if j.State == jobs.StateQueued {
				return j.ID
			}
		}
		return ""
	}
	for i := 0; i < 128 && queuedOnA() == ""; i++ {
		resp, body := doReq(t, http.MethodPost, front.URL+"/v1/jobs",
			map[string]any{"workload": "plummer", "n": 32, "config": map[string]any{"dt": 1e-3}, "steps": 20})
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit: status %d body %s", resp.StatusCode, body)
		}
	}
	jobID := queuedOnA()
	if jobID == "" {
		t.Fatal("no job queued on shard a")
	}
	if resp, body := doReq(t, http.MethodPost, front.URL+"/v1/shards/a/drain", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d body %s", resp.StatusCode, body)
	}

	// Evict the handoff's cache entry (capacity 1) so the next read walks
	// the ring from the slow owner, then make the owner slow.
	if resp, body := doReq(t, http.MethodPost, front.URL+"/v1/sessions",
		map[string]any{"workload": "plummer", "n": 32, "config": map[string]any{"dt": 1e-3}}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("cache-evicting create: status %d body %s", resp.StatusCode, body)
	}
	p.Injector().SetRules(chaos.Rule{Latency: 1500 * time.Millisecond})

	start := time.Now()
	resp, body := doReq(t, http.MethodGet, front.URL+"/v1/jobs/"+jobID, nil)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged read: status %d body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-NBody-Shard"); got != "b" {
		t.Fatalf("hedged read answered by %q, want b", got)
	}
	if elapsed >= 1200*time.Millisecond {
		t.Fatalf("hedged read took %v — the hedge did not beat the 1.5s-slow owner", elapsed)
	}
	if v := metricValue(t, front.URL, "nbody_router_hedge_wins_total"); v < 1 {
		t.Errorf("nbody_router_hedge_wins_total = %v, want >= 1", v)
	}
}

// TestE2EListingDegradesWhenShardBlackholed: a partitioned shard must
// cost a listing only its own entries (marked "incomplete"), not fail or
// hang the whole scatter-gather.
func TestE2EListingDegradesWhenShardBlackholed(t *testing.T) {
	a := newStack(t, "a", nil)
	b := newStack(t, "b", nil)
	p, aFront := chaosFront(t, a, 4)
	front := newRouter(t,
		router.Config{ProbeInterval: time.Hour, ProxyTimeout: 400 * time.Millisecond},
		router.ShardConfig{Name: "a", URL: aFront.URL},
		router.ShardConfig{Name: "b", URL: b.srv.URL},
	)

	onB := createSessionOn(t, front.URL, "b")
	createSessionOn(t, front.URL, "a")
	p.Injector().SetRules(chaos.Rule{BlackholeRate: 1})

	start := time.Now()
	resp, body := doReq(t, http.MethodGet, front.URL+"/v1/sessions", nil)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded listing: status %d body %s", resp.StatusCode, body)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("listing hung %v behind a blackholed shard", elapsed)
	}
	var out struct {
		Sessions   []struct{ ID string } `json:"sessions"`
		Incomplete bool                  `json:"incomplete"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Incomplete {
		t.Fatalf("partial listing not marked incomplete: %s", body)
	}
	if got := resp.Header.Get("X-NBody-Skipped-Shards"); !strings.Contains(got, "a") {
		t.Fatalf("skipped-shards header %q, want it to name a", got)
	}
	found := false
	for _, s := range out.Sessions {
		if s.ID == onB {
			found = true
		}
	}
	if !found {
		t.Fatalf("reachable shard b's session %s missing from degraded listing: %s", onB, body)
	}
}
