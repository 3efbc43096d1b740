package router

// End-to-end tests: real serve+jobs stacks on httptest servers behind a
// real Router, exercising placement across shards, proxy passthrough,
// read failover, the health state machine, write safety on a dead shard,
// and drain with queued-job handoff.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nbody/internal/jobs"
	"nbody/internal/obs"
	"nbody/internal/serve"
)

// testShard is one in-process nbody-serve replica: a session manager and
// a job queue sharing one registry, exposed over httptest.
type testShard struct {
	name string
	m    *serve.Manager
	jm   *jobs.Manager
	srv  *httptest.Server
}

// gatedRunner blocks every StepSession until the gate channel is closed,
// pinning jobs in the running state (and, with all workers blocked, the
// rest of the queue in queued) so drain-handoff tests are deterministic.
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

// newTestShard builds one replica. A non-nil gate wraps its job runner in
// gatedRunner.
func newTestShard(t *testing.T, name string, gate chan struct{}) *testShard {
	t.Helper()
	ob := obs.Nop() // one registry per shard, shared by sessions and jobs
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
	return &testShard{name: name, m: m, jm: jm, srv: srv}
}

// newTestRouter fronts the shards with a Router and its HTTP surface.
func newTestRouter(t *testing.T, cfg Config, shards ...*testShard) (*Router, *httptest.Server) {
	t.Helper()
	for _, s := range shards {
		cfg.Shards = append(cfg.Shards, ShardConfig{Name: s.name, URL: s.srv.URL})
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return rt, front
}

// doReq sends one JSON request and returns the response with its body
// fully read.
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

// envelopeCode extracts the stable error code from an error envelope.
func envelopeCode(t *testing.T, body []byte) string {
	t.Helper()
	var e struct {
		Error struct {
			Code  string `json:"code"`
			Shard string `json:"shard"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("decoding error envelope %q: %v", body, err)
	}
	return e.Error.Code
}

// createSession places one session through the router and returns its ID
// and the shard it landed on.
func createSession(t *testing.T, frontURL string) (id, shardName string) {
	t.Helper()
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
	return info.ID, resp.Header.Get("X-NBody-Shard")
}

// createSessionOn keeps placing sessions until one lands on the wanted
// shard (each placement is a fresh random ID, so a few tries suffice).
func createSessionOn(t *testing.T, frontURL, want string) string {
	t.Helper()
	for i := 0; i < 64; i++ {
		id, shardName := createSession(t, frontURL)
		if shardName == want {
			return id
		}
	}
	t.Fatalf("no session landed on shard %s in 64 placements", want)
	return ""
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

type jobInfo struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Class     string `json:"class"`
	StepsDone int    `json:"steps_done"`
	Config    struct {
		DT  float64  `json:"dt"`
		Eps *float64 `json:"eps"`
	} `json:"config"`
}

func getJobVia(t *testing.T, baseURL, id string) (jobInfo, *http.Response) {
	t.Helper()
	resp, body := doReq(t, http.MethodGet, baseURL+"/v1/jobs/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d body %s", id, resp.StatusCode, body)
	}
	var j jobInfo
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	return j, resp
}

// TestRouterPlacementAndProxy is the happy path: sessions land on both
// shards, every per-session verb proxies through (step, get, watch,
// delete), and the scatter-gather listing pages over the merged set.
func TestRouterPlacementAndProxy(t *testing.T) {
	a := newTestShard(t, "a", nil)
	b := newTestShard(t, "b", nil)
	rt, front := newTestRouter(t, Config{ProbeInterval: time.Hour}, a, b)

	created := make(map[string]string, 16) // id → shard
	byShard := map[string]int{}
	for i := 0; i < 16; i++ {
		id, shardName := createSession(t, front.URL)
		if !strings.HasPrefix(id, "rs-") {
			t.Fatalf("session ID %q is not router-minted", id)
		}
		if shardName != "a" && shardName != "b" {
			t.Fatalf("session %s placed on unknown shard %q", id, shardName)
		}
		created[id] = shardName
		byShard[shardName]++
	}
	if byShard["a"] == 0 || byShard["b"] == 0 {
		t.Fatalf("16 placements all on one shard: %v", byShard)
	}
	if rt.ins.placements.With("a").Value() == 0 || rt.ins.placements.With("b").Value() == 0 {
		t.Fatal("per-shard placement counters did not both advance")
	}

	// Pick any session and drive its whole verb surface through the proxy.
	var id, home string
	for id, home = range created {
		break
	}
	resp, body := doReq(t, http.MethodPost, front.URL+"/v1/sessions/"+id+"/step", map[string]any{"steps": 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("step via router: status %d body %s", resp.StatusCode, body)
	}
	var step struct {
		Completed int `json:"completed"`
	}
	if err := json.Unmarshal(body, &step); err != nil {
		t.Fatal(err)
	}
	if step.Completed != 2 {
		t.Fatalf("step completed %d, want 2", step.Completed)
	}
	if got := resp.Header.Get("X-NBody-Shard"); got != home {
		t.Fatalf("step answered by shard %q, session lives on %q", got, home)
	}

	resp, _ = doReq(t, http.MethodGet, front.URL+"/v1/sessions/"+id, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-NBody-Shard") != home {
		t.Fatalf("GET session: status %d shard %q, want 200 from %q",
			resp.StatusCode, resp.Header.Get("X-NBody-Shard"), home)
	}

	// The watch stream (a write: it advances the simulation) proxies
	// chunk-by-chunk; two steps yield at least two NDJSON events.
	resp, body = doReq(t, http.MethodGet, front.URL+"/v1/sessions/"+id+"/watch?steps=2", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch via router: status %d body %s", resp.StatusCode, body)
	}
	if lines := strings.Count(strings.TrimSpace(string(body)), "\n") + 1; lines < 2 {
		t.Fatalf("watch stream carried %d events, want >= 2:\n%s", lines, body)
	}

	// Paginated scatter-gather: walking limit=5 pages yields every session
	// exactly once.
	var listed []string
	cursor := ""
	for {
		u := front.URL + "/v1/sessions?limit=5"
		if cursor != "" {
			u += "&cursor=" + cursor
		}
		resp, body := doReq(t, http.MethodGet, u, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list sessions: status %d body %s", resp.StatusCode, body)
		}
		var page struct {
			Sessions []struct {
				ID string `json:"id"`
			} `json:"sessions"`
			NextCursor string `json:"next_cursor"`
		}
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatal(err)
		}
		for _, s := range page.Sessions {
			listed = append(listed, s.ID)
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(listed) != len(created) {
		t.Fatalf("paged listing returned %d sessions, created %d: %v", len(listed), len(created), listed)
	}
	seen := map[string]bool{}
	for _, lid := range listed {
		if seen[lid] {
			t.Fatalf("session %s listed twice", lid)
		}
		seen[lid] = true
		if _, ok := created[lid]; !ok {
			t.Fatalf("listing invented session %s", lid)
		}
	}

	resp, body = doReq(t, http.MethodDelete, front.URL+"/v1/sessions/"+id, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete via router: status %d body %s", resp.StatusCode, body)
	}
	resp, body = doReq(t, http.MethodGet, front.URL+"/v1/sessions/"+id, nil)
	if resp.StatusCode != http.StatusNotFound || envelopeCode(t, body) != "session_not_found" {
		t.Fatalf("GET deleted session: status %d body %s, want 404 session_not_found", resp.StatusCode, body)
	}
}

// TestRouterReadRetryOnTransportError kills a shard the router still
// believes is up (probes effectively disabled): an idempotent GET whose
// cached location points at the corpse retries on the other shard and
// re-learns the location, while a write to the dead shard reports 502
// without retrying anywhere.
func TestRouterReadRetryOnTransportError(t *testing.T) {
	a := newTestShard(t, "a", nil)
	b := newTestShard(t, "b", nil)
	rt, front := newTestRouter(t, Config{ProbeInterval: time.Hour}, a, b)

	sA := createSessionOn(t, front.URL, "a")
	sB := createSessionOn(t, front.URL, "b")

	a.srv.Close() // dead, but still marked up

	// Stale cache (as after a router restart or a moved resource): the
	// read walks past the dead shard and finds the session on b.
	rt.cache.put("s", sB, "a")
	before := rt.ins.readRetries.Value()
	resp, body := doReq(t, http.MethodGet, front.URL+"/v1/sessions/"+sB, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-NBody-Shard") != "b" {
		t.Fatalf("GET with stale location: status %d shard %q body %s, want 200 from b",
			resp.StatusCode, resp.Header.Get("X-NBody-Shard"), body)
	}
	if rt.ins.readRetries.Value() <= before {
		t.Fatal("read retry counter did not advance")
	}
	if loc, ok := rt.cache.get("s", sB); !ok || loc != "b" {
		t.Fatalf("cache after retried read: %q, %v; want b, true", loc, ok)
	}

	// A read for a session that only ever lived on the dead shard walks
	// every reachable shard and replays the 404.
	resp, body = doReq(t, http.MethodGet, front.URL+"/v1/sessions/"+sA, nil)
	if resp.StatusCode != http.StatusNotFound || envelopeCode(t, body) != "session_not_found" {
		t.Fatalf("GET dead-shard session: status %d body %s, want 404 session_not_found", resp.StatusCode, body)
	}

	// Writes never fail over on a transport error — the step may have
	// reached the shard, so the router reports the broken hop instead.
	resp, body = doReq(t, http.MethodPost, front.URL+"/v1/sessions/"+sA+"/step", map[string]any{"steps": 1})
	if resp.StatusCode != http.StatusBadGateway || envelopeCode(t, body) != "bad_gateway" {
		t.Fatalf("step to dead shard: status %d body %s, want 502 bad_gateway", resp.StatusCode, body)
	}
}

// TestRouterHealthShardDown exercises the probe state machine: a killed
// shard is marked down, writes to its sessions answer 503
// shard_unavailable, new placements avoid it, and with every shard down
// the router stops accepting work entirely.
func TestRouterHealthShardDown(t *testing.T) {
	a := newTestShard(t, "a", nil)
	b := newTestShard(t, "b", nil)
	rt, front := newTestRouter(t, Config{
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  time.Second,
		FailAfter:     1,
		PassAfter:     1,
	}, a, b)

	sA := createSessionOn(t, front.URL, "a")

	a.srv.Close()
	waitFor(t, 5*time.Second, "shard a marked down", func() bool {
		for _, s := range rt.Status() {
			if s.Name == "a" {
				return !s.Up
			}
		}
		return false
	})

	resp, body := doReq(t, http.MethodPost, front.URL+"/v1/sessions/"+sA+"/step", map[string]any{"steps": 1})
	if resp.StatusCode != http.StatusServiceUnavailable || envelopeCode(t, body) != "shard_unavailable" {
		t.Fatalf("step to down shard: status %d body %s, want 503 shard_unavailable", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 shard_unavailable lacks Retry-After")
	}
	var env struct {
		Error struct {
			Shard string `json:"shard"`
		} `json:"error"`
	}
	if json.Unmarshal(body, &env); env.Error.Shard != "a" {
		t.Fatalf("error envelope names shard %q, want a", env.Error.Shard)
	}

	// The survivor takes every new placement.
	for i := 0; i < 8; i++ {
		_, shardName := createSession(t, front.URL)
		if shardName != "b" {
			t.Fatalf("placement %d landed on %q with a down", i, shardName)
		}
	}
	if resp, _ := doReq(t, http.MethodGet, front.URL+"/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("router readyz with one live shard: status %d", resp.StatusCode)
	}

	// Listings during the outage serve the survivor's resources but are
	// flagged incomplete, so a client can tell "unreachable" from
	// "deleted".
	for _, path := range []string{"/v1/sessions", "/v1/jobs"} {
		resp, body = doReq(t, http.MethodGet, front.URL+path, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s during outage: status %d body %s", path, resp.StatusCode, body)
		}
		var listing struct {
			Incomplete bool `json:"incomplete"`
		}
		if err := json.Unmarshal(body, &listing); err != nil || !listing.Incomplete {
			t.Fatalf("GET %s during outage not flagged incomplete (err %v): %s", path, err, body)
		}
		if got := resp.Header.Get("X-NBody-Skipped-Shards"); got != "a" {
			t.Fatalf("GET %s during outage: X-NBody-Skipped-Shards = %q, want a", path, got)
		}
	}

	// Kill the survivor: the router is no longer ready and refuses both
	// placements and reads.
	b.srv.Close()
	waitFor(t, 5*time.Second, "shard b marked down", func() bool {
		for _, s := range rt.Status() {
			if s.Name == "b" {
				return !s.Up
			}
		}
		return false
	})
	if resp, body := doReq(t, http.MethodGet, front.URL+"/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable ||
		envelopeCode(t, body) != "no_healthy_shards" {
		t.Fatalf("router readyz with all shards down: status %d body %s", resp.StatusCode, body)
	}
	if resp, body := doReq(t, http.MethodPost, front.URL+"/v1/sessions",
		map[string]any{"workload": "plummer", "n": 64, "config": map[string]any{"dt": 1e-3}}); resp.StatusCode != http.StatusServiceUnavailable ||
		envelopeCode(t, body) != "no_healthy_shards" {
		t.Fatalf("placement with all shards down: status %d body %s", resp.StatusCode, body)
	}
	if resp, body := doReq(t, http.MethodGet, front.URL+"/v1/sessions/"+sA, nil); resp.StatusCode != http.StatusServiceUnavailable ||
		envelopeCode(t, body) != "no_healthy_shards" {
		t.Fatalf("read with all shards down: status %d body %s", resp.StatusCode, body)
	}
}

// TestRouterStaleCancelledRecord reproduces the aftermath of a drain
// handoff whose origin cleanup failed, after the router's location cache
// has been lost (restart, eviction): the ring owner holds a cancelled
// leftover under the job's ID while the live copy sits on the successor.
// A per-ID GET must treat the cancelled record as a soft miss, answer
// with the live copy, and re-learn the location so follow-up requests
// route to the live job. A job whose only copy is cancelled still
// answers that record.
func TestRouterStaleCancelledRecord(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(openGate)

	a := newTestShard(t, "a", gate)
	b := newTestShard(t, "b", nil)
	rt, front := newTestRouter(t, Config{ProbeInterval: time.Hour}, a, b)

	// Pin shard a's two workers with gated blockers so later submissions
	// to a stay queued (and cancel cleanly, never having started).
	blockers := make([]string, 2)
	for i := range blockers {
		resp, body := doReq(t, http.MethodPost, a.srv.URL+"/v1/jobs",
			map[string]any{"workload": "plummer", "n": 64, "config": map[string]any{"dt": 1e-3}, "steps": 50})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("blocker submit: status %d body %s", resp.StatusCode, body)
		}
		var j jobInfo
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatal(err)
		}
		blockers[i] = j.ID
	}
	for _, id := range blockers {
		id := id
		waitFor(t, 5*time.Second, "blocker "+id+" running", func() bool {
			j, _ := getJobVia(t, a.srv.URL, id)
			return j.State == "running"
		})
	}

	// mintOwnedByA draws job IDs until one's ring owner is shard a, so
	// the discovery walk hits the stale copy before the live one.
	mintOwnedByA := func() string {
		for i := 0; i < 256; i++ {
			if id := mintID("rj"); rt.ring.Owner(id) == "a" {
				return id
			}
		}
		t.Fatal("no minted job ID ring-owned by a in 256 draws")
		return ""
	}
	makeStaleRecord := func(id string) {
		spec := map[string]any{"id": id, "workload": "plummer", "n": 64, "config": map[string]any{"dt": 1e-3}, "steps": 2}
		if resp, body := doReq(t, http.MethodPost, a.srv.URL+"/v1/jobs", spec); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s on a: status %d body %s", id, resp.StatusCode, body)
		}
		if resp, body := doReq(t, http.MethodDelete, a.srv.URL+"/v1/jobs/"+id, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel %s on a: status %d body %s", id, resp.StatusCode, body)
		}
	}

	// The shadowed job: cancelled leftover on a, live copy on b. Both
	// submits bypass the router, so its cache knows nothing about the ID
	// — exactly the post-restart state.
	shadowed := mintOwnedByA()
	makeStaleRecord(shadowed)
	if resp, body := doReq(t, http.MethodPost, b.srv.URL+"/v1/jobs",
		map[string]any{"id": shadowed, "workload": "plummer", "n": 64, "config": map[string]any{"dt": 1e-3}, "steps": 2}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit live copy on b: status %d body %s", resp.StatusCode, body)
	}
	j, resp := getJobVia(t, front.URL, shadowed)
	if j.State == "cancelled" {
		t.Fatalf("GET answered the stale cancelled record: %+v", j)
	}
	if got := resp.Header.Get("X-NBody-Shard"); got != "b" {
		t.Fatalf("GET answered by shard %q, live copy lives on b", got)
	}
	if loc, ok := rt.cache.get("j", shadowed); !ok || loc != "b" {
		t.Fatalf("cache after discovery = %q, %v; want b, true", loc, ok)
	}

	// A genuinely cancelled job (no live copy anywhere) still answers its
	// cancelled record rather than walking into a 404.
	lone := mintOwnedByA()
	makeStaleRecord(lone)
	j, resp = getJobVia(t, front.URL, lone)
	if j.State != "cancelled" || resp.Header.Get("X-NBody-Shard") != "a" {
		t.Fatalf("GET lone cancelled job: state %q from shard %q, want cancelled from a",
			j.State, resp.Header.Get("X-NBody-Shard"))
	}

	openGate()
}

// TestLocationCacheDropPutChurn: drop must release the key's fifo slot,
// or a drop/put cycle duplicates slots — shrinking effective capacity
// and, once the stale slot's turn comes, evicting the live entry while
// the cache is under capacity.
func TestLocationCacheDropPutChurn(t *testing.T) {
	c := newLocationCache(4)
	for i := 0; i < 10; i++ {
		c.put("s", "a", "sh1")
		c.drop("s", "a")
	}
	c.put("s", "a", "sh1")
	for _, id := range []string{"b", "c", "d"} {
		c.put("s", id, "sh1")
	}
	if len(c.m) != 4 || len(c.fifo) != 4 {
		t.Fatalf("cache holds %d entries / %d fifo slots after churn, want 4/4", len(c.m), len(c.fifo))
	}
	if v, ok := c.get("s", "a"); !ok || v != "sh1" {
		t.Fatalf("churned entry = %q, %v; want sh1, true while under capacity", v, ok)
	}
	// One past capacity evicts the oldest live entry ("a"), nothing else.
	c.put("s", "e", "sh2")
	if _, ok := c.get("s", "a"); ok {
		t.Fatal("oldest entry survived eviction past capacity")
	}
	for _, id := range []string{"b", "c", "d", "e"} {
		if _, ok := c.get("s", id); !ok {
			t.Fatalf("entry %q lost by eviction of a churned slot", id)
		}
	}
	// Dropping a missing key is a no-op, not a fifo mutation.
	c.drop("s", "never-stored")
	if len(c.fifo) != 4 {
		t.Fatalf("fifo length %d after no-op drop, want 4", len(c.fifo))
	}
}

// TestRouterDrainHandoff is the drain protocol end to end: with shard a's
// workers pinned by gated blocker jobs, router-placed jobs on a stay
// queued; draining a hands exactly those jobs to b under the same IDs
// (reprioritized class included), nothing is lost or duplicated in the
// global listing, new placements avoid the draining shard, and undrain
// restores it.
func TestRouterDrainHandoff(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(openGate)

	a := newTestShard(t, "a", gate)
	b := newTestShard(t, "b", nil)
	_, front := newTestRouter(t, Config{ProbeInterval: time.Hour}, a, b)

	// Two blockers straight onto shard a saturate its 2 workers: they sit
	// in StepSession behind the gate, in state running.
	blockers := make([]string, 2)
	for i := range blockers {
		resp, body := doReq(t, http.MethodPost, a.srv.URL+"/v1/jobs",
			map[string]any{"workload": "plummer", "n": 64, "config": map[string]any{"dt": 1e-3}, "steps": 50})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("blocker submit: status %d body %s", resp.StatusCode, body)
		}
		var j jobInfo
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatal(err)
		}
		blockers[i] = j.ID
	}
	for _, id := range blockers {
		id := id
		waitFor(t, 5*time.Second, "blocker "+id+" running", func() bool {
			j, _ := getJobVia(t, a.srv.URL, id)
			return j.State == "running"
		})
	}

	// Place jobs through the router until both shards hold some. Shard a's
	// stay queued (its workers are pinned); shard b's run to completion.
	var onA, onB []string
	for i := 0; len(onA) < 2 || len(onB) < 1; i++ {
		if i >= 60 {
			t.Fatalf("60 submissions did not cover both shards (a=%d b=%d)", len(onA), len(onB))
		}
		// eps 0 (the exact Newtonian law) is the value a handoff that
		// resubmitted anything but the resolved config would lose.
		resp, body := doReq(t, http.MethodPost, front.URL+"/v1/jobs",
			map[string]any{"workload": "plummer", "n": 64, "config": map[string]any{"dt": 1e-3, "eps": 0}, "steps": 2})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit via router: status %d body %s", resp.StatusCode, body)
		}
		var j jobInfo
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(j.ID, "rj-") {
			t.Fatalf("job ID %q is not router-minted", j.ID)
		}
		switch shardName := resp.Header.Get("X-NBody-Shard"); shardName {
		case "a":
			onA = append(onA, j.ID)
		case "b":
			onB = append(onB, j.ID)
		default:
			t.Fatalf("job placed on unknown shard %q", shardName)
		}
	}
	if j, _ := getJobVia(t, front.URL, onA[0]); j.State != "queued" {
		t.Fatalf("job on pinned shard is %q, want queued", j.State)
	}

	// Satellite: PATCH reprioritize proxies through the router. A queued
	// job moves class...
	resp, body := doReq(t, http.MethodPatch, front.URL+"/v1/jobs/"+onA[0], map[string]any{"class": "high"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reprioritize via router: status %d body %s", resp.StatusCode, body)
	}
	var rj jobInfo
	if err := json.Unmarshal(body, &rj); err != nil {
		t.Fatal(err)
	}
	if rj.Class != "high" || rj.State != "queued" {
		t.Fatalf("reprioritized job: class %q state %q, want high/queued", rj.Class, rj.State)
	}
	// ...and a running one answers 409 job_not_queued (routed to wherever
	// the record lives, relocating on 404 if the ring owner differs).
	resp, body = doReq(t, http.MethodPatch, front.URL+"/v1/jobs/"+blockers[0], map[string]any{"class": "high"})
	if resp.StatusCode != http.StatusConflict || envelopeCode(t, body) != "job_not_queued" {
		t.Fatalf("reprioritize running job: status %d body %s, want 409 job_not_queued", resp.StatusCode, body)
	}

	// Drain shard a: every queued router-placed job hands off to b; the
	// running blockers stay put.
	resp, body = doReq(t, http.MethodPost, front.URL+"/v1/shards/a/drain", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d body %s", resp.StatusCode, body)
	}
	var res DrainResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Draining || res.HandedOff != len(onA) || res.Failed != 0 || res.Skipped != 0 {
		t.Fatalf("drain result %+v, want draining with %d handed off, 0 failed, 0 skipped", res, len(onA))
	}

	// Handed-off jobs keep their IDs, land on b, and complete there. The
	// reprioritized class survives the move.
	for _, id := range onA {
		id := id
		waitFor(t, 15*time.Second, "handed-off job "+id+" succeeded on b", func() bool {
			j, resp := getJobVia(t, front.URL, id)
			return j.State == "succeeded" && resp.Header.Get("X-NBody-Shard") == "b"
		})
	}
	if j, _ := getJobVia(t, front.URL, onA[0]); j.Class != "high" {
		t.Fatalf("handed-off job class %q, want high (reprioritization lost in handoff)", j.Class)
	}
	for _, id := range onA {
		if j, _ := getJobVia(t, front.URL, id); j.Config.DT != 1e-3 || j.Config.Eps == nil || *j.Config.Eps != 0 {
			t.Fatalf("handed-off job %s runs with config %+v, want dt 1e-3 and eps 0", id, j.Config)
		}
	}

	// The global listing still holds every job exactly once: no record
	// lost, no duplicate from a leftover origin copy.
	resp, body = doReq(t, http.MethodGet, front.URL+"/v1/jobs", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list jobs: status %d body %s", resp.StatusCode, body)
	}
	var listing struct {
		Jobs []jobInfo `json:"jobs"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, j := range listing.Jobs {
		count[j.ID]++
	}
	for _, id := range append(append(append([]string{}, blockers...), onA...), onB...) {
		if count[id] != 1 {
			t.Fatalf("job %s appears %d times in the merged listing, want exactly once (%v)", id, count[id], count)
		}
	}

	// Draining shards take no new placements; undrain restores them.
	for i := 0; i < 8; i++ {
		if _, shardName := createSession(t, front.URL); shardName != "b" {
			t.Fatalf("placement landed on draining shard %q", shardName)
		}
	}
	resp, body = doReq(t, http.MethodPost, front.URL+"/v1/shards/a/undrain", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("undrain: status %d body %s", resp.StatusCode, body)
	}
	createSessionOn(t, front.URL, "a")

	openGate() // release the blockers before the shard stacks shut down
}
