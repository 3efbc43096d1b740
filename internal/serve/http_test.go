package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"nbody/internal/simcfg"
	"nbody/internal/snapshot"
	"nbody/internal/workload"
)

func newTestServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	m := newTestManager(t, cfg)
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(srv.Close)
	return m, srv
}

// configQuery is the snapshot-upload query string carrying cfg, a JSON
// simcfg.Config.
func configQuery(cfg string) string { return "?" + url.Values{"config": {cfg}}.Encode() }

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

func TestHandlerCreateValidation(t *testing.T) {
	_, srv := newTestServer(t, testConfig())

	tests := []struct {
		name   string
		body   string
		status int
		code   string // expected error code; "" means CodeInvalidRequest
	}{
		{"valid", `{"workload":"plummer","n":64,"config":{"dt":0.001}}`, http.StatusCreated, ""},
		{"valid explicit", `{"workload":"galaxy","n":128,"seed":7,"config":{"algorithm":"bvh","dt":1e-4,"theta":0.7}}`, http.StatusCreated, ""},
		{"valid config object", `{"workload":"plummer","n":64,"config":{"algorithm":"bvh","dt":0.001,"eps":0}}`, http.StatusCreated, ""},
		{"empty body", ``, http.StatusBadRequest, ""},
		{"malformed json", `{"workload":`, http.StatusBadRequest, ""},
		{"wrong type", `{"n":"many","config":{"dt":0.001}}`, http.StatusBadRequest, ""},
		{"unknown field", `{"n":64,"config":{"dt":0.001},"bogus":1}`, http.StatusBadRequest, ""},
		{"trailing garbage", `{"n":64,"config":{"dt":0.001}}{"again":true}`, http.StatusBadRequest, ""},
		{"zero bodies", `{"workload":"plummer","n":0,"config":{"dt":0.001}}`, http.StatusBadRequest, ""},
		{"negative bodies", `{"workload":"plummer","n":-5,"config":{"dt":0.001}}`, http.StatusBadRequest, ""},
		{"too many bodies", `{"workload":"plummer","n":1000000,"config":{"dt":0.001}}`, http.StatusBadRequest, ""},
		{"zero dt", `{"workload":"plummer","n":64}`, http.StatusBadRequest, CodeInvalidConfig},
		{"negative dt", `{"workload":"plummer","n":64,"config":{"dt":-1}}`, http.StatusBadRequest, CodeInvalidConfig},
		{"bad workload", `{"workload":"blackhole","n":64,"config":{"dt":0.001}}`, http.StatusBadRequest, ""},
		{"bad algorithm", `{"workload":"plummer","n":64,"config":{"dt":0.001,"algorithm":"fmm"}}`, http.StatusBadRequest, CodeInvalidConfig},
		{"bad config layout", `{"workload":"plummer","n":64,"config":{"dt":0.001,"layout":"diagonal"}}`, http.StatusBadRequest, CodeInvalidConfig},
		{"negative config theta", `{"workload":"plummer","n":64,"config":{"dt":0.001,"theta":-0.5}}`, http.StatusBadRequest, CodeInvalidConfig},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, srv.URL+"/v1/sessions", tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				b, _ := io.ReadAll(resp.Body)
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.status, b)
			}
			if tc.status != http.StatusCreated {
				want := tc.code
				if want == "" {
					want = CodeInvalidRequest
				}
				var e errorResponse
				if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error.Code != want {
					t.Fatalf("error responses must carry the JSON error envelope with code %q (err %v, %+v)", want, err, e)
				}
			}
		})
	}
}

func TestHandlerSessionLifecycle(t *testing.T) {
	_, srv := newTestServer(t, testConfig())

	// Create.
	resp := postJSON(t, srv.URL+"/v1/sessions", `{"workload":"plummer","n":64,"seed":3,"config":{"dt":0.001}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/sessions/") {
		t.Fatalf("Location header %q", loc)
	}
	info := decodeBody[Info](t, resp)
	if info.ID == "" || info.State != "created" || info.N != 64 || info.Algorithm != "octree" {
		t.Fatalf("create info %+v", info)
	}

	// Step.
	resp = postJSON(t, srv.URL+"/v1/sessions/"+info.ID+"/step", `{"steps":5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("step status %d", resp.StatusCode)
	}
	res := decodeBody[StepResult](t, resp)
	if res.Completed != 5 || res.Steps != 5 || res.Interrupted {
		t.Fatalf("step result %+v", res)
	}

	// Info reflects the steps and the idle state.
	resp, err := http.Get(srv.URL + "/v1/sessions/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeBody[Info](t, resp)
	if got.Steps != 5 || got.State != "idle" || got.TraceSamples != 1 {
		t.Fatalf("info after step %+v", got)
	}

	// List contains it.
	resp, err = http.Get(srv.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeBody[map[string][]Info](t, resp)
	if len(list["sessions"]) != 1 || list["sessions"][0].ID != info.ID {
		t.Fatalf("list %+v", list)
	}

	// Trace CSV has a header and one sample row.
	resp, err = http.Get(srv.URL + "/v1/sessions/" + info.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	csv, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if lines := strings.Count(strings.TrimSpace(string(csv)), "\n") + 1; lines != 2 {
		t.Fatalf("trace CSV has %d lines, want header+1: %q", lines, csv)
	}

	// Delete, then everything 404s.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sessions/"+info.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	for _, path := range []string{
		"/v1/sessions/" + info.ID,
		"/v1/sessions/" + info.ID + "/snapshot",
		"/v1/sessions/" + info.ID + "/trace",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s after delete = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestHandlerAdmission429(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSessions = 1
	_, srv := newTestServer(t, cfg)

	resp := postJSON(t, srv.URL+"/v1/sessions", `{"workload":"plummer","n":32,"config":{"dt":0.01}}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first create %d", resp.StatusCode)
	}
	resp = postJSON(t, srv.URL+"/v1/sessions", `{"workload":"plummer","n":32,"config":{"dt":0.01}}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap create = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

func TestHandlerStepConflict409(t *testing.T) {
	m, srv := newTestServer(t, testConfig())
	info, err := m.Create(context.Background(), plummerReq(32, 0, simcfg.Config{DT: 0.01}))
	if err != nil {
		t.Fatal(err)
	}
	release, done := blockedWatch(t, m, info.ID)
	defer release()

	resp := postJSON(t, srv.URL+"/v1/sessions/"+info.ID+"/step", `{"steps":1}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting step = %d, want 409", resp.StatusCode)
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotHTTPRoundTrip uploads a checkpoint, downloads it back through
// the HTTP layer, and requires the served bytes to be identical to the
// local encoding of the same system — proving write → serve → parse loses
// nothing.
func TestSnapshotHTTPRoundTrip(t *testing.T) {
	_, srv := newTestServer(t, testConfig())

	sys := workload.GalaxyCollision(200, 17)
	meta := snapshot.Meta{Step: 40, Time: 0.04}
	var local bytes.Buffer
	if err := snapshot.Write(&local, sys, meta); err != nil {
		t.Fatal(err)
	}

	// Upload as a new session (physics via the config query parameter).
	resp, err := http.Post(srv.URL+"/v1/sessions"+configQuery(`{"dt":0.001,"algorithm":"bvh"}`),
		snapshotContentType, bytes.NewReader(local.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("snapshot create = %d: %s", resp.StatusCode, b)
	}
	info := decodeBody[Info](t, resp)
	if info.N != 200 || info.Steps != 40 || info.Algorithm != "bvh" || info.Workload != "snapshot" {
		t.Fatalf("snapshot session info %+v", info)
	}

	// Download before stepping: must be byte-identical to the upload.
	resp, err = http.Get(srv.URL + "/v1/sessions/" + info.ID + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != snapshotContentType {
		t.Errorf("snapshot content type %q", ct)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, local.Bytes()) {
		t.Fatalf("served snapshot differs from upload (%d vs %d bytes)", len(served), local.Len())
	}

	// And the served bytes parse back to the identical system.
	got, gotMeta, err := snapshot.Read(bytes.NewReader(served))
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta %+v, want %+v", gotMeta, meta)
	}
	for i := 0; i < sys.N(); i++ {
		if got.PosX[i] != sys.PosX[i] || got.VelY[i] != sys.VelY[i] || got.ID[i] != sys.ID[i] {
			t.Fatalf("body %d differs after round trip", i)
		}
	}

	// After stepping, the snapshot metadata advances from the base.
	resp = postJSON(t, srv.URL+"/v1/sessions/"+info.ID+"/step", `{"steps":3}`)
	resp.Body.Close()
	resp, err = http.Get(srv.URL + "/v1/sessions/" + info.ID + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	_, m2, err := snapshot.Read(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m2.Step != 43 {
		t.Fatalf("stepped snapshot at step %d, want 43", m2.Step)
	}
}

func TestHandlerSnapshotUploadValidation(t *testing.T) {
	_, srv := newTestServer(t, testConfig())

	// Corrupt payload.
	resp, err := http.Post(srv.URL+"/v1/sessions"+configQuery(`{"dt":0.001}`), snapshotContentType,
		strings.NewReader("NBODYSNP garbage"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt snapshot = %d, want 400", resp.StatusCode)
	}

	// Valid payload but missing dt.
	sys := workload.Plummer(10, 1)
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, sys, snapshot.Meta{}); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/v1/sessions", snapshotContentType, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("snapshot without dt = %d, want 400", resp.StatusCode)
	}

	// Bad query parameter.
	resp, err = http.Post(srv.URL+"/v1/sessions"+configQuery(`{"dt":"fast"}`), snapshotContentType, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad dt query = %d, want 400", resp.StatusCode)
	}

	// A forged header declaring a huge body count must be rejected with 400
	// from the header alone — not by attempting (and dying on) a
	// proportional allocation.
	forged := []byte("NBODYSNP")
	forged = binary.LittleEndian.AppendUint32(forged, 1)     // version
	forged = binary.LittleEndian.AppendUint64(forged, 1<<39) // n, far over MaxBodies
	resp, err = http.Post(srv.URL+"/v1/sessions"+configQuery(`{"dt":0.001}`), snapshotContentType, bytes.NewReader(forged))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("forged body count = %d, want 400 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "exceeds limit") {
		t.Errorf("forged body count error = %s", body)
	}
}

func TestHandlerWatchStream(t *testing.T) {
	m, srv := newTestServer(t, testConfig())
	info, err := m.Create(context.Background(), plummerReq(64, 0, simcfg.Config{DT: 1e-3}))
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/sessions/" + info.ID + "/watch?steps=6&every=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("watch content type %q", ct)
	}

	var events []WatchEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev WatchEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	if events[2].Step != 6 {
		t.Fatalf("final event at step %d, want 6", events[2].Step)
	}
	for _, ev := range events {
		if len(ev.PhaseSeconds) == 0 {
			t.Errorf("event %d missing phase timings", ev.Step)
		}
	}

	// Invalid parameters are rejected before any stepping.
	for _, q := range []string{"steps=abc", "steps=0", "steps=1000000000", "every=x"} {
		resp, err := http.Get(srv.URL + "/v1/sessions/" + info.ID + "/watch?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("watch?%s = %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestHandlerMetrics(t *testing.T) {
	m, srv := newTestServer(t, testConfig())
	info, err := m.Create(context.Background(), plummerReq(64, 0, simcfg.Config{DT: 1e-3}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(context.Background(), info.ID, 4); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	got := decodeBody[MetricsSnapshot](t, resp)
	if got.Sessions != 1 || got.StepsTotal != 4 || got.MaxSessions != testConfig().MaxSessions {
		t.Fatalf("metrics %+v", got)
	}
	if got.StepLatency == nil || got.StepLatency.Count != 4 {
		t.Fatalf("metrics latency %+v", got.StepLatency)
	}
}

func TestHandlerNotFoundAndMethods(t *testing.T) {
	_, srv := newTestServer(t, testConfig())

	for _, tc := range []struct {
		method, path string
		status       int
		code         string
		message      string // substring the envelope's message must carry
	}{
		{http.MethodGet, "/v1/sessions/nope", http.StatusNotFound, CodeSessionNotFound, ""},
		{http.MethodPost, "/v1/sessions/nope/step", http.StatusNotFound, CodeSessionNotFound, ""},
		{http.MethodDelete, "/v1/sessions/nope", http.StatusNotFound, CodeSessionNotFound, ""},
		{http.MethodGet, "/v1/sessions/nope/watch", http.StatusNotFound, CodeSessionNotFound, ""},
		{http.MethodPut, "/v1/sessions", http.StatusMethodNotAllowed, CodeMethodNotAllowed, "PUT"},
		{http.MethodGet, "/bogus", http.StatusNotFound, CodeNotFound, "/bogus"},
		{http.MethodGet, "/v1/nope", http.StatusNotFound, CodeNotFound, "/v1/nope"},
		// The unversioned prefix is retired: no route, but the envelope
		// names the /v1 successor whatever the method.
		{http.MethodGet, "/sessions", http.StatusNotFound, CodeNotFound, "use /v1/sessions"},
		{http.MethodPost, "/sessions/s-1/step", http.StatusNotFound, CodeNotFound, "use /v1/sessions/s-1/step"},
		{http.MethodPut, "/sessions", http.StatusNotFound, CodeNotFound, "use /v1/sessions"},
	} {
		var body io.Reader
		if tc.method == http.MethodPost {
			body = strings.NewReader(`{"steps":1}`)
		}
		req, _ := http.NewRequest(tc.method, srv.URL+tc.path, body)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.status)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s content type %q, want the JSON envelope", tc.method, tc.path, ct)
		}
		if tc.status == http.StatusMethodNotAllowed && resp.Header.Get("Allow") != "GET, POST" {
			t.Errorf("%s %s Allow = %q, want \"GET, POST\"", tc.method, tc.path, resp.Header.Get("Allow"))
		}
		env := decodeBody[errorResponse](t, resp)
		if env.Error.Code != tc.code || !strings.Contains(env.Error.Message, tc.message) {
			t.Errorf("%s %s envelope %+v, want code %s and message containing %q",
				tc.method, tc.path, env.Error, tc.code, tc.message)
		}
	}
}

func TestHandlerHealthz(t *testing.T) {
	_, srv := newTestServer(t, testConfig())
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", resp.StatusCode)
	}
}

// TestHandlerReadyz: the readiness probe answers 200 while serving and 503
// once the manager begins draining, while liveness stays 200 — the signal a
// load balancer uses to stop routing before shutdown completes.
func TestHandlerReadyz(t *testing.T) {
	m, srv := newTestServer(t, testConfig())

	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain = %d, want 200", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", resp.StatusCode)
	}
	live, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	live.Body.Close()
	if live.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200", live.StatusCode)
	}
}

// TestHandlerFailedSession422: a quarantined session's step and watch
// requests answer 422 with the failure reason, while its info and snapshot
// stay readable and /metrics reports the failure.
func TestHandlerFailedSession422(t *testing.T) {
	m, srv := newTestServer(t, testConfig())
	info, err := m.Create(context.Background(), plummerReq(32, 0, simcfg.Config{DT: 0.01}))
	if err != nil {
		t.Fatal(err)
	}
	m.stepHook = func(*Session) { panic("http containment fault") }

	resp := postJSON(t, srv.URL+"/v1/sessions/"+info.ID+"/step", `{"steps":1}`)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("failed-session step = %d (%s), want 422", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "http containment fault") {
		t.Fatalf("422 body %s lacks the failure reason", body)
	}

	resp, err = http.Get(srv.URL + "/v1/sessions/" + info.ID + "/watch?steps=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("failed-session watch = %d, want 422", resp.StatusCode)
	}

	// Info still serves, carrying the reason.
	resp, err = http.Get(srv.URL + "/v1/sessions/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeBody[Info](t, resp)
	if got.State != "failed" || !strings.Contains(got.FailReason, "http containment fault") {
		t.Fatalf("failed session info %+v", got)
	}
	// So does the snapshot download.
	resp, err = http.Get(srv.URL + "/v1/sessions/" + info.ID + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failed-session snapshot = %d, want 200", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	ms := decodeBody[MetricsSnapshot](t, resp)
	if ms.FailedTotal != 1 || ms.FailedSessions[info.ID] == "" {
		t.Fatalf("metrics after failure %+v", ms)
	}
}

// TestHandlerOverload429 drives the full stack into load shedding: with one
// slot and one queue seat, a burst of step requests across sessions must
// produce at least one 429 and no hung request.
func TestHandlerOverload429(t *testing.T) {
	cfg := testConfig()
	cfg.StepSlots = 1
	cfg.MaxQueue = 1
	m, srv := newTestServer(t, cfg)

	var ids [3]string
	for i := range ids {
		info, err := m.Create(context.Background(), plummerReq(32, 0, simcfg.Config{DT: 0.01}))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = info.ID
	}
	release, done := blockedWatch(t, m, ids[0]) // pins the only slot
	defer release()

	queued := make(chan int, 1)
	go func() {
		resp := postJSON(t, srv.URL+"/v1/sessions/"+ids[1]+"/step", `{"steps":1}`)
		resp.Body.Close()
		queued <- resp.StatusCode
	}()
	waitUntil(t, 5*time.Second, "queue depth 1", func() bool {
		return m.Metrics().QueueDepth == 1
	})

	resp := postJSON(t, srv.URL+"/v1/sessions/"+ids[2]+"/step", `{"steps":1}`)
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("overload 429 without Retry-After")
	}
	shed := decodeBody[errorResponse](t, resp)
	if resp.StatusCode != http.StatusTooManyRequests || shed.Error.Code != CodeOverloaded {
		t.Fatalf("overload step = %d (%+v), want 429 %s", resp.StatusCode, shed, CodeOverloaded)
	}

	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if code := <-queued; code != http.StatusOK {
		t.Fatalf("queued request finished with %d", code)
	}
}

// TestShardIdentityAndRequestedID covers the serve-side half of the
// routing contract: a configured shard stamps X-NBody-Shard on every
// response and inside error envelopes, honors router-requested session
// IDs from X-NBody-ID, rejects duplicates, and prefixes its own minted
// IDs with the shard name.
func TestShardIdentityAndRequestedID(t *testing.T) {
	cfg := testConfig()
	cfg.ShardID = "a"
	_, srv := newTestServer(t, cfg)

	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/sessions",
		strings.NewReader(`{"workload":"plummer","n":64,"config":{"dt":0.001}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(IDHeader, "rs-0123456789abcdef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create with requested ID: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(ShardHeader); got != "a" {
		t.Fatalf("create response shard header %q, want a", got)
	}
	info := decodeBody[Info](t, resp)
	if info.ID != "rs-0123456789abcdef" {
		t.Fatalf("created session %q, requested rs-0123456789abcdef", info.ID)
	}

	// The same requested ID again is a 400 whose envelope names the shard.
	req2, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/sessions",
		strings.NewReader(`{"workload":"plummer","n":64,"config":{"dt":0.001}}`))
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set(IDHeader, "rs-0123456789abcdef")
	resp, err = http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate requested ID: status %d, want 400", resp.StatusCode)
	}
	dup := decodeBody[struct {
		Error ErrorDetail `json:"error"`
	}](t, resp)
	if dup.Error.Shard != "a" {
		t.Fatalf("duplicate-ID envelope shard %q, want a", dup.Error.Shard)
	}

	// Without X-NBody-ID the shard mints its own, shard-prefixed so IDs
	// stay globally unique across replicas.
	resp = postJSON(t, srv.URL+"/v1/sessions", `{"workload":"plummer","n":64,"config":{"dt":0.001}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("minted create: status %d", resp.StatusCode)
	}
	minted := decodeBody[Info](t, resp)
	if !strings.HasPrefix(minted.ID, "a-s-") {
		t.Fatalf("sharded server minted %q, want a-s-<n>", minted.ID)
	}

	// Errors carry the shard too: a 404's envelope and header both say a.
	resp, err = http.Get(srv.URL + "/v1/sessions/nope")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get(ShardHeader) != "a" {
		t.Fatalf("404: status %d shard header %q, want 404 from a", resp.StatusCode, resp.Header.Get(ShardHeader))
	}
	nf := decodeBody[struct {
		Error ErrorDetail `json:"error"`
	}](t, resp)
	if nf.Error.Code != CodeSessionNotFound || nf.Error.Shard != "a" {
		t.Fatalf("404 envelope %+v, want session_not_found from shard a", nf.Error)
	}
}
