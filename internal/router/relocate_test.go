package router

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// stubShard answers readiness probes, and a session write with 200 when it
// holds the session and with serve's 404 envelope otherwise, counting the
// writes it sees.
type stubShard struct {
	name   string
	holds  atomic.Value // string: the one session ID this shard holds
	writes atomic.Int32
	srv    *httptest.Server
}

func newStubShard(t *testing.T, name string) *stubShard {
	t.Helper()
	s := &stubShard{name: name}
	s.holds.Store("")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("POST /v1/sessions/{id}/step", func(w http.ResponseWriter, r *http.Request) {
		s.writes.Add(1)
		w.Header().Set("Content-Type", "application/json")
		if r.PathValue("id") != s.holds.Load().(string) {
			w.WriteHeader(http.StatusNotFound)
			w.Write([]byte(`{"error":{"code":"session_not_found","message":"` + s.name + `"}}`))
			return
		}
		w.Write([]byte(`{"completed":1}`))
	})
	s.srv = httptest.NewServer(mux)
	t.Cleanup(s.srv.Close)
	return s
}

// A write whose ring owner answers 404 moves to the shard that holds the
// session; the location cache learns the holder, so the next write goes
// straight there; and when every shard answers 404, the client gets the
// last 404 and the cached location is dropped.
func TestRouterWriteRelocatesOn404(t *testing.T) {
	a, b := newStubShard(t, "a"), newStubShard(t, "b")
	rt, err := New(Config{Shards: []ShardConfig{{Name: a.name, URL: a.srv.URL}, {Name: b.name, URL: b.srv.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	const id = "rs-relocated"
	owner, holder := a, b
	if rt.ring.Owner(id) == b.name {
		owner, holder = b, a
	}
	holder.holds.Store(id)
	step := func(id string) (*http.Response, []byte) {
		return doReq(t, http.MethodPost, front.URL+"/v1/sessions/"+id+"/step", map[string]int{"steps": 1})
	}

	resp, _ := step(id)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(shardHeader) != holder.name {
		t.Fatalf("relocated write: status %d from shard %q, want 200 from %q", resp.StatusCode, resp.Header.Get(shardHeader), holder.name)
	}
	if got, ok := rt.cache.get("s", id); !ok || got != holder.name {
		t.Fatalf("cache after relocation = %q, %v; want %q", got, ok, holder.name)
	}
	if o, h := owner.writes.Load(), holder.writes.Load(); o != 1 || h != 1 {
		t.Fatalf("first write: owner saw %d, holder %d; want 1 and 1", o, h)
	}
	if resp, _ := step(id); resp.StatusCode != http.StatusOK {
		t.Fatalf("second write: status %d", resp.StatusCode)
	}
	if o, h := owner.writes.Load(), holder.writes.Load(); o != 1 || h != 2 {
		t.Fatalf("second write: owner saw %d, holder %d; want 1 and 2 (straight to the holder)", o, h)
	}

	const gone = "rs-gone"
	rt.cache.put("s", gone, rt.ring.Owner(gone))
	last := a
	if rt.ring.Owner(gone) == a.name {
		last = b
	}
	resp, body := step(gone)
	if resp.StatusCode != http.StatusNotFound || envelopeCode(t, body) != "session_not_found" || resp.Header.Get(shardHeader) != last.name {
		t.Fatalf("write to a missing session: status %d from %q, body %s; want the 404 of %q", resp.StatusCode, resp.Header.Get(shardHeader), body, last.name)
	}
	if got, ok := rt.cache.get("s", gone); ok {
		t.Fatalf("cache still locates the missing session on %q", got)
	}
}
