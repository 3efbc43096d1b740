package serve

// Tests of the serving layer's observability seam and the /v1 API surface:
// the Prometheus exposition, pagination, the stable error-envelope codes and
// request-ID propagation into logs.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"nbody/internal/jobs"
	"nbody/internal/metrics"
	"nbody/internal/obs"
	"nbody/internal/simcfg"
)

// syncBuffer makes a bytes.Buffer safe to write from request goroutines and
// read from the test.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestPrometheusExposition: after stepping a session, GET /metrics serves
// the Prometheus text format with the per-phase step-time histograms
// populated for every solver phase — the paper's Figure 8 breakdown as a
// scrapeable series.
func TestPrometheusExposition(t *testing.T) {
	cfg := testConfig()
	cfg.Obs = obs.Nop()
	m, srv := newTestServer(t, cfg)

	info, err := m.Create(context.Background(), plummerReq(64, 0, simcfg.Config{DT: 1e-3}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(context.Background(), info.ID, 3); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type %q", ct)
	}

	// Every phase of the default octree algorithm has a populated series.
	for _, p := range metrics.Phases() {
		series := fmt.Sprintf(`nbody_step_phase_seconds_count{algorithm="octree",phase="%s"} 3`, p)
		if !strings.Contains(body, series) {
			t.Errorf("exposition missing %q", series)
		}
	}
	for _, want := range []string{
		"# TYPE nbody_step_phase_seconds histogram",
		"nbody_steps_total 3",
		"nbody_sessions_created_total 1",
		`nbody_sessions{state="idle"} 1`,
		"nbody_step_seconds_count 3",
		`nbody_http_requests_total{route="unmatched"`, // never scraped yet: absent is fine below
	} {
		if want == `nbody_http_requests_total{route="unmatched"` {
			continue // documentation of the bounded-cardinality label only
		}
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The scrape itself is then visible on the next scrape.
	resp2, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := readAll(resp2)
	if !strings.Contains(body2, `nbody_http_requests_total{route="GET /metrics",code="200"} 1`) {
		t.Errorf("second scrape lacks the first scrape's request count")
	}
}

func readAll(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	return sb.String(), sc.Err()
}

// TestListPagination walks GET /v1/sessions?limit=&cursor= across pages and
// requires the union to be every session exactly once, in ID order.
func TestListPagination(t *testing.T) {
	m, srv := newTestServer(t, testConfig())
	const total = 5
	for i := 0; i < total; i++ {
		if _, err := m.Create(context.Background(), plummerReq(16, 0, simcfg.Config{DT: 0.01})); err != nil {
			t.Fatal(err)
		}
	}

	var ids []string
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > total {
			t.Fatal("pagination did not terminate")
		}
		resp, err := http.Get(srv.URL + "/v1/sessions?limit=2&cursor=" + cursor)
		if err != nil {
			t.Fatal(err)
		}
		page := decodeBody[listResponse](t, resp)
		if len(page.Sessions) > 2 {
			t.Fatalf("page of %d > limit 2", len(page.Sessions))
		}
		for _, s := range page.Sessions {
			ids = append(ids, s.ID)
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(ids) != total {
		t.Fatalf("walked %d sessions %v, want %d", len(ids), ids, total)
	}
	for i := 1; i < len(ids); i++ {
		if !m.ids.Less(ids[i-1], ids[i]) {
			t.Fatalf("ids out of order: %v", ids)
		}
	}

	// Bad limits answer with the envelope.
	for _, q := range []string{"limit=x", "limit=-1"} {
		resp, err := http.Get(srv.URL + "/v1/sessions?" + q)
		if err != nil {
			t.Fatal(err)
		}
		e := decodeBody[errorResponse](t, resp)
		if resp.StatusCode != http.StatusBadRequest || e.Error.Code != CodeInvalidRequest {
			t.Errorf("?%s = %d code %q, want 400 %s", q, resp.StatusCode, e.Error.Code, CodeInvalidRequest)
		}
	}
}

// TestErrorEnvelopeCodes pins the stable machine-readable code for each
// failure path.
func TestErrorEnvelopeCodes(t *testing.T) {
	_, _, srv := newJobServer(t, testConfig(), jobs.Config{Workers: 1})

	do := func(method, path, contentType, body string) (*http.Response, errorResponse) {
		t.Helper()
		var rd *strings.Reader
		if body == "" {
			rd = strings.NewReader("")
		} else {
			rd = strings.NewReader(body)
		}
		req, _ := http.NewRequest(method, srv.URL+path, rd)
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp, decodeBody[errorResponse](t, resp)
	}

	tests := []struct {
		name, method, path, ct, body string
		status                       int
		code                         string
	}{
		{"get missing", http.MethodGet, "/v1/sessions/nope", "", "", 404, CodeSessionNotFound},
		{"delete missing", http.MethodDelete, "/v1/sessions/nope", "", "", 404, CodeSessionNotFound},
		{"step missing", http.MethodPost, "/v1/sessions/nope/step", "application/json", `{"steps":1}`, 404, CodeSessionNotFound},
		{"bad json", http.MethodPost, "/v1/sessions", "application/json", `{`, 400, CodeInvalidRequest},
		{"corrupt snapshot", http.MethodPost, "/v1/sessions" + configQuery(`{"dt":0.001}`), snapshotContentType, "NBODYSNP garbage", 400, CodeInvalidSnapshot},
		{"bad query", http.MethodPost, "/v1/sessions" + configQuery(`{"dt":"fast"}`), snapshotContentType, "ignored", 400, CodeInvalidConfig},
		{"job missing", http.MethodGet, "/v1/jobs/nope", "", "", 404, CodeJobNotFound},
		{"job cancel missing", http.MethodDelete, "/v1/jobs/nope", "", "", 404, CodeJobNotFound},
		{"job artifact missing", http.MethodGet, "/v1/jobs/nope/snapshot", "", "", 404, CodeJobNotFound},
		{"job bad json", http.MethodPost, "/v1/jobs", "application/json", `{`, 400, CodeInvalidRequest},
		{"job zero steps", http.MethodPost, "/v1/jobs", "application/json",
			`{"workload":"plummer","n":32,"config":{"dt":0.001},"steps":0}`, 400, CodeInvalidRequest},
		{"job bad class", http.MethodPost, "/v1/jobs", "application/json",
			`{"workload":"plummer","n":32,"config":{"dt":0.001},"steps":5,"class":"urgent"}`, 400, CodeInvalidRequest},
		{"job bad workload", http.MethodPost, "/v1/jobs", "application/json",
			`{"workload":"blackhole","n":32,"config":{"dt":0.001},"steps":5}`, 400, CodeInvalidRequest},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			resp, e := do(tc.method, tc.path, tc.ct, tc.body)
			if resp.StatusCode != tc.status || e.Error.Code != tc.code {
				t.Fatalf("%s %s = %d code %q, want %d %s", tc.method, tc.path, resp.StatusCode, e.Error.Code, tc.status, tc.code)
			}
			if e.Error.Message == "" {
				t.Error("envelope without a message")
			}
		})
	}
}

// TestFailedSessionEnvelope: a quarantined session's error envelope carries
// session_failed and the failed lifecycle state.
func TestFailedSessionEnvelope(t *testing.T) {
	m, srv := newTestServer(t, testConfig())
	info, err := m.Create(context.Background(), plummerReq(32, 0, simcfg.Config{DT: 0.01}))
	if err != nil {
		t.Fatal(err)
	}
	m.stepHook = func(*Session) { panic("envelope fault") }

	resp := postJSON(t, srv.URL+"/v1/sessions/"+info.ID+"/step", `{"steps":1}`)
	e := decodeBody[errorResponse](t, resp)
	if resp.StatusCode != http.StatusUnprocessableEntity ||
		e.Error.Code != CodeSessionFailed || e.Error.SessionState != "failed" {
		t.Fatalf("failed-session envelope = %d %+v", resp.StatusCode, e.Error)
	}
}

// TestRequestIDPropagation: a client-supplied X-Request-ID is echoed on the
// response and stamped onto both the HTTP request log line and the
// manager's own log lines for work done within that request.
func TestRequestIDPropagation(t *testing.T) {
	logs := &syncBuffer{}
	logger, err := obs.NewLogger(logs, obs.FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Obs = &obs.Observer{Registry: obs.NewRegistry(), Logger: logger, Tracer: obs.NewTracer(64)}
	_, srv := newTestServer(t, cfg)

	const reqID = "test-req-42"
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/sessions",
		strings.NewReader(`{"workload":"plummer","n":32,"config":{"dt":0.01}}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != reqID {
		t.Fatalf("response X-Request-ID %q, want %q", got, reqID)
	}

	byMsg := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q is not JSON: %v", line, err)
		}
		msg, _ := rec["msg"].(string)
		id, _ := rec["request_id"].(string)
		byMsg[msg] = id
	}
	for _, msg := range []string{"session created", "http request"} {
		if byMsg[msg] != reqID {
			t.Errorf("%q log line carries request_id %q, want %q (logs: %s)", msg, byMsg[msg], reqID, logs.String())
		}
	}

	// A request without the header gets a generated ID.
	resp2, err := http.Get(srv.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID generated for a bare request")
	}
}

// TestDebugTraceEndpoint: request and step spans land in the span ring and
// are served at /v1/debug/trace.
func TestDebugTraceEndpoint(t *testing.T) {
	cfg := testConfig()
	cfg.Obs = &obs.Observer{Registry: obs.NewRegistry(), Tracer: obs.NewTracer(128)}
	m, srv := newTestServer(t, cfg)

	info, err := m.Create(context.Background(), plummerReq(32, 0, simcfg.Config{DT: 0.01}))
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, srv.URL+"/v1/sessions/"+info.ID+"/step", `{"steps":2}`)
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/v1/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Spans []obs.SpanRecord `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	names := map[string]bool{}
	for _, sp := range body.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"session.step", "phase.force", "http POST /v1/sessions/{id}/step"} {
		if !names[want] {
			t.Errorf("span ring missing %q (have %v)", want, names)
		}
	}
}

// TestNopObsDefault: a manager built without Config.Obs still works and
// serves a Prometheus exposition (the Nop observer's private registry).
func TestNopObsDefault(t *testing.T) {
	_, srv := newTestServer(t, testConfig())
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "# TYPE nbody_steps_total counter") {
		t.Fatalf("/metrics without Obs = %d:\n%s", resp.StatusCode, body)
	}
}

// TestWatchRenamedFields: the NDJSON stream uses the v1 snake_case field
// names.
func TestWatchRenamedFields(t *testing.T) {
	m, srv := newTestServer(t, testConfig())
	info, err := m.Create(context.Background(), plummerReq(32, 0, simcfg.Config{DT: 1e-3}))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/sessions/" + info.ID + "/watch?steps=1")
	if err != nil {
		t.Fatal(err)
	}
	line, _ := readAll(resp)
	var raw map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(line)), &raw); err != nil {
		t.Fatalf("watch line %q: %v", line, err)
	}
	for _, key := range []string{"kinetic_energy", "momentum_norm"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("watch event missing %q: %v", key, raw)
		}
	}
	for _, gone := range []string{"kinetic", "momentum"} {
		if _, ok := raw[gone]; ok {
			t.Errorf("watch event still carries legacy field %q", gone)
		}
	}
}
