package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"nbody/internal/jobs"
)

// tenantTestConfig is testConfig plus two tenants: alice holds a session
// quota, bob a request-rate quota (one burst token, negligible refill).
func tenantTestConfig() Config {
	cfg := testConfig()
	cfg.Tenants = []Tenant{
		{Name: "alice", Key: "key-alice", MaxSessions: 1},
		{Name: "bob", Key: "key-bob", RatePerSec: 0.001, Burst: 1},
	}
	return cfg
}

// doAuthed performs one request with a bearer key ("" = no Authorization
// header).
func doAuthed(t *testing.T, method, url, key, body string) *http.Response {
	t.Helper()
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	} else {
		rd = strings.NewReader("")
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestTenantAuthRequired: every /v1 route of a multi-tenant deployment
// demands a known bearer key and answers 401 with the stable envelope and
// a WWW-Authenticate challenge otherwise; the orchestrator probes and the
// Prometheus scrape stay open.
func TestTenantAuthRequired(t *testing.T) {
	_, srv := newTestServer(t, tenantTestConfig())

	for _, key := range []string{"", "key-wrong"} {
		resp := doAuthed(t, http.MethodGet, srv.URL+"/v1/sessions", key, "")
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("key %q status = %d, want 401", key, resp.StatusCode)
		}
		if resp.Header.Get("WWW-Authenticate") == "" {
			t.Errorf("key %q: 401 without WWW-Authenticate challenge", key)
		}
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("key %q: 401 body is not the envelope: %v", key, err)
		}
		resp.Body.Close()
		if e.Error.Code != CodeUnauthorized {
			t.Errorf("key %q: envelope code %q, want %q", key, e.Error.Code, CodeUnauthorized)
		}
	}

	// Probes and the scrape are auth-exempt.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		resp := doAuthed(t, http.MethodGet, srv.URL+path, "", "")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s without key status = %d, want 200", path, resp.StatusCode)
		}
	}

	// A known key is admitted, the response names the tenant, and the
	// session record carries the owner.
	resp := doAuthed(t, http.MethodPost, srv.URL+"/v1/sessions", "key-alice",
		`{"workload":"plummer","n":32,"config":{"dt":0.001}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("authed create status = %d, want 201", resp.StatusCode)
	}
	if got := resp.Header.Get(TenantHeader); got != "alice" {
		t.Errorf("%s header = %q, want alice", TenantHeader, got)
	}
	info := decodeBody[Info](t, resp)
	if info.Tenant != "alice" {
		t.Errorf("session tenant = %q, want alice", info.Tenant)
	}
}

// TestTenantRateLimitQuota: a tenant over its token-bucket request rate is
// shed with the quota envelope and a Retry-After derived from its own
// refill horizon, while another tenant's requests sail through.
func TestTenantRateLimitQuota(t *testing.T) {
	m, srv := newTestServer(t, tenantTestConfig())

	// bob's single burst token.
	resp := doAuthed(t, http.MethodGet, srv.URL+"/v1/sessions", "key-bob", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bob's first request status = %d, want 200", resp.StatusCode)
	}

	resp = doAuthed(t, http.MethodGet, srv.URL+"/v1/sessions", "key-bob", "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("bob's second request status = %d, want 429", resp.StatusCode)
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if e.Error.Code != CodeQuotaExceeded {
		t.Errorf("envelope code = %q, want %q", e.Error.Code, CodeQuotaExceeded)
	}
	// At 0.001 tokens/s the refill horizon is ~1000s, clamped to the max —
	// NOT the 1-second floor a load-derived hint would never justify here.
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs != retryAfterMax {
		t.Errorf("Retry-After = %q, want %d (refill horizon, clamped)", resp.Header.Get("Retry-After"), retryAfterMax)
	}

	// The bucket is bob's alone.
	resp = doAuthed(t, http.MethodGet, srv.URL+"/v1/sessions", "key-alice", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("alice's request during bob's shed status = %d, want 200", resp.StatusCode)
	}
	if v := m.ins.tenantRejected.With("bob", "rate").Value(); v != 1 {
		t.Errorf("tenantRejected{bob,rate} = %v, want 1", v)
	}
}

// TestTenantSessionQuota: a tenant at its live-session quota is shed with
// the quota envelope and a Retry-After pointing at its own eviction
// horizon; another tenant's admission is untouched.
func TestTenantSessionQuota(t *testing.T) {
	cfg := tenantTestConfig()
	cfg.IdleTTL = 20 * time.Second
	m, srv := newTestServer(t, cfg)

	create := func(key string) *http.Response {
		return doAuthed(t, http.MethodPost, srv.URL+"/v1/sessions", key,
			`{"workload":"plummer","n":32,"config":{"dt":0.001}}`)
	}
	resp := create("key-alice")
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("alice's first create status = %d, want 201", resp.StatusCode)
	}

	resp = create("key-alice")
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || e.Error.Code != CodeQuotaExceeded {
		t.Fatalf("over-quota create = %d/%q, want 429/%q", resp.StatusCode, e.Error.Code, CodeQuotaExceeded)
	}
	// The hint is alice's own eviction horizon: her idle session's
	// remaining TTL (~20s), not the global default.
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 15 || secs > 20 {
		t.Errorf("Retry-After = %q, want ≈20 (tenant's own idle TTL)", resp.Header.Get("Retry-After"))
	}

	// bob has no session quota and the global cap (8) is far away.
	resp = create("key-bob")
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Errorf("bob's create during alice's quota shed status = %d, want 201", resp.StatusCode)
	}

	// The JSON metrics surface carries the per-tenant accounting.
	snap := m.Metrics()
	at := snap.Tenants["alice"]
	if at.Sessions != 1 || at.MaxSessions != 1 || at.RejectedSessions != 1 {
		t.Errorf("alice tenant stats = %+v, want 1 live / max 1 / 1 rejected", at)
	}
}

// TestTenantMetricsExposition: the per-tenant Prometheus series exist from
// boot (pre-touched for every configured tenant) so dashboards and alerts
// see a zero-valued series instead of a gap before first traffic.
func TestTenantMetricsExposition(t *testing.T) {
	_, srv := newTestServer(t, tenantTestConfig())

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`nbody_tenant_requests_total{tenant="alice"}`,
		`nbody_tenant_requests_total{tenant="bob"}`,
		`nbody_tenant_sessions{tenant="alice"}`,
		`nbody_tenant_rejected_total{tenant="bob",kind="rate"}`,
		`nbody_tenant_rejected_total{tenant="unknown",kind="auth"}`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing pre-touched series %s", series)
		}
	}
}

// TestScenarioEndToEnd drives the scenario-pack surface over HTTP: the
// listing, a create by pack name with overrides, config-over-preset
// precedence, and the two rejection modes (ambiguous spelling, unknown
// pack).
func TestScenarioEndToEnd(t *testing.T) {
	_, srv := newTestServer(t, testConfig())

	resp, err := http.Get(srv.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/scenarios status = %d, want 200", resp.StatusCode)
	}
	page := decodeBody[map[string][]scenarioInfo](t, resp)
	names := make([]string, 0, 4)
	for _, p := range page["scenarios"] {
		names = append(names, p.Name)
	}
	want := "galaxy-merger plummer solar-system tsne-embedding"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("scenario listing = %q, want %q", got, want)
	}

	// Create by name: the pack supplies the generator and tuned physics,
	// the scenario object overrides n and seed.
	resp = postJSON(t, srv.URL+"/v1/sessions", `{"scenario":{"name":"tsne-embedding","n":128,"seed":3}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("scenario create status = %d", resp.StatusCode)
	}
	info := decodeBody[Info](t, resp)
	if info.Workload != "embedding" || info.N != 128 || info.Seed != 3 {
		t.Errorf("resolved session = %s/%d/%d, want embedding/128/3", info.Workload, info.N, info.Seed)
	}
	if info.Config.Scenario != "tsne-embedding" {
		t.Errorf("config scenario echo = %q, want tsne-embedding", info.Config.Scenario)
	}
	if info.Config.DT != 1e-2 || info.Config.Eps != 0.05 || info.Config.Theta != 0.8 {
		t.Errorf("pack physics not applied: dt=%g eps=%g theta=%g", info.Config.DT, info.Config.Eps, info.Config.Theta)
	}

	// The request's own config object wins field-wise over the preset.
	resp = postJSON(t, srv.URL+"/v1/sessions", `{"scenario":{"name":"plummer","n":64},"config":{"dt":0.005}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("scenario+config create status = %d", resp.StatusCode)
	}
	info = decodeBody[Info](t, resp)
	if info.Config.DT != 0.005 {
		t.Errorf("config-over-preset DT = %g, want 0.005", info.Config.DT)
	}

	// Ambiguous spelling: scenario and top-level generator fields.
	resp = postJSON(t, srv.URL+"/v1/sessions", `{"scenario":{"name":"plummer"},"workload":"plummer","n":32}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("scenario+workload status = %d, want 400", resp.StatusCode)
	}

	// Unknown pack names the known ones in a 400.
	resp = postJSON(t, srv.URL+"/v1/sessions", `{"scenario":{"name":"warp-core"}}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown pack status = %d, want 400", resp.StatusCode)
	}
}

// TestTenantJobAttribution: jobs submitted through the authed API carry
// the submitting tenant and the scenario echo end to end, and the backing
// session is stamped with the same tenant so the session quota holds for
// job-created sessions too.
func TestTenantJobAttribution(t *testing.T) {
	cfg := tenantTestConfig()
	m := newTestManager(t, cfg)
	jm, err := jobs.NewManager(jobs.Config{
		Runner:       NewJobRunner(m),
		Workers:      1,
		MaxQueue:     8,
		TenantQueues: map[string]int{"alice": 4, "bob": 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		jm.Close(ctx)
	})
	srv := httptest.NewServer(NewHandlerWithJobs(m, jm))
	t.Cleanup(srv.Close)

	resp := doAuthed(t, http.MethodPost, srv.URL+"/v1/jobs", "key-bob",
		`{"scenario":{"name":"plummer","n":48,"seed":9},"steps":3}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit status = %d, want 202", resp.StatusCode)
	}
	job := decodeBody[jobs.Info](t, resp)
	if job.Tenant != "bob" || job.Scenario != "plummer" {
		t.Fatalf("job attribution = tenant %q scenario %q, want bob/plummer", job.Tenant, job.Scenario)
	}
	if job.Workload != "plummer" || job.N != 48 || job.Seed != 9 {
		t.Errorf("resolved job spec = %s/%d/%d, want plummer/48/9", job.Workload, job.N, job.Seed)
	}

	// The job's backing session inherits the tenant.
	waitUntil(t, 10*time.Second, "the job to finish", func() bool {
		info, err := jm.Get(job.ID)
		return err == nil && info.State.Terminal()
	})
	done, err := jm.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != jobs.StateSucceeded {
		t.Fatalf("job state = %s (%s)", done.State, done.Error)
	}
	sess, err := m.Get(done.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Tenant != "bob" {
		t.Errorf("backing session tenant = %q, want bob", sess.Tenant)
	}
}
