package serve

// Tests for the /v1 physics-config surface: the config object on session
// and job creation, the effective-config echo, and the legible refusal of
// the retired flat spelling.

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"nbody/internal/core"
	"nbody/internal/jobs"
	"nbody/internal/snapshot"
	"nbody/internal/workload"
)

func TestCreateSessionConfigEcho(t *testing.T) {
	_, srv := newTestServer(t, testConfig())

	resp := postJSON(t, srv.URL+"/v1/sessions",
		`{"workload":"plummer","n":64,"config":{
			"algorithm":"bvh","dt":0.001,"eps":0,"theta":0.9,
			"tree_reuse":{"rebuild_every":3,"refit_threshold":0.02}}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	info := decodeBody[Info](t, resp)

	eff := info.Config
	if eff.Algorithm != "bvh" || eff.DT != 0.001 || eff.Theta != 0.9 {
		t.Errorf("echoed config %+v", eff)
	}
	if eff.Eps != 0 {
		t.Errorf("explicit eps=0 must survive resolution, got %v", eff.Eps)
	}
	if eff.G != 1 || eff.Layout != "flat" || eff.Sequential {
		t.Errorf("defaults not applied in echo: %+v", eff)
	}
	if eff.TreeReuse.RebuildEvery != 3 || eff.TreeReuse.RefitThreshold != 0.02 {
		t.Errorf("tree_reuse echo %+v", eff.TreeReuse)
	}

	// The same fully resolved config comes back on GET.
	gresp, err := http.Get(srv.URL + "/v1/sessions/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeBody[Info](t, gresp).Config; got != eff {
		t.Errorf("GET config %+v != create echo %+v", got, eff)
	}
}

// TestRetiredFlatFieldsRejected pins how the retired spelling fails: each of
// the seven flat physics names, in a session body, a job body or a
// snapshot-upload query string, answers 400 invalid_config with a message
// naming its successor inside the config object — not the generic
// unknown-field 400, and not a silently ignored query parameter. The last
// row is a retired value of a live field: config.algorithm "kdtree" fails
// the same way on the same three surfaces, naming the field and the live
// algorithms.
func TestRetiredFlatFieldsRejected(t *testing.T) {
	_, _, srv := newJobServer(t, testConfig(), jobs.Config{Workers: 1})
	var snap bytes.Buffer
	if err := snapshot.Write(&snap, workload.Plummer(8, 1), snapshot.Meta{}); err != nil {
		t.Fatal(err)
	}

	retired := []struct {
		name, value, want string
		inConfig          bool // the member goes inside the config object, not beside it
	}{
		{"algorithm", `"bvh"`, "config.algorithm", false},
		{"dt", "0.001", "config.dt", false},
		{"theta", "0.7", "config.theta", false},
		{"eps", "0.01", "config.eps", false},
		{"g", "2", "config.g", false},
		{"sequential", "true", "config.sequential", false},
		{"rebuild_every", "3", "config.tree_reuse.rebuild_every", false},
		{"algorithm", `"kdtree"`, `field "algorithm": unknown algorithm "kdtree" (want one of ` + core.AlgorithmNames() + ")", true},
	}
	if flat := len(retired) - 1; flat != len(retiredFields) {
		t.Fatalf("table covers %d flat names, the handler retires %v", flat, retiredFields)
	}
	for _, tc := range retired {
		name, value, want := tc.name, tc.value, tc.want
		member := fmt.Sprintf("%q:%s", name, value)
		label, cfg, beside, query := name, `{"dt":0.001}`, ","+member, "&"+name+"="+strings.Trim(value, `"`)
		if tc.inConfig {
			label, cfg, beside, query = "config."+name, `{"dt":0.001,`+member+`}`, "", ""
		}
		surfaces := map[string]func() (*http.Response, error){
			"session body": func() (*http.Response, error) {
				body := fmt.Sprintf(`{"workload":"plummer","n":64,"config":%s%s}`, cfg, beside)
				return http.Post(srv.URL+"/v1/sessions", "application/json", strings.NewReader(body))
			},
			"job body": func() (*http.Response, error) {
				body := fmt.Sprintf(`{"workload":"plummer","n":64,"steps":4,"config":%s%s}`, cfg, beside)
				return http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			},
			"upload query": func() (*http.Response, error) {
				u := srv.URL + "/v1/sessions" + configQuery(cfg) + query
				return http.Post(u, snapshotContentType, bytes.NewReader(snap.Bytes()))
			},
		}
		for surface, send := range surfaces {
			t.Run(label+"/"+surface, func(t *testing.T) {
				resp, err := send()
				if err != nil {
					t.Fatal(err)
				}
				e := decodeBody[errorResponse](t, resp)
				if resp.StatusCode != http.StatusBadRequest || e.Error.Code != CodeInvalidConfig {
					t.Fatalf("status %d code %q, want 400 %s (%s)", resp.StatusCode, e.Error.Code, CodeInvalidConfig, e.Error.Message)
				}
				if !strings.Contains(e.Error.Message, want) {
					t.Errorf("message %q does not contain %q", e.Error.Message, want)
				}
			})
		}
	}
}

func TestSnapshotUploadConfigQueryParam(t *testing.T) {
	_, srv := newTestServer(t, testConfig())

	// Source session to snapshot.
	resp := postJSON(t, srv.URL+"/v1/sessions", `{"workload":"plummer","n":32,"config":{"dt":0.001}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	src := decodeBody[Info](t, resp)
	snap, err := http.Get(srv.URL + "/v1/sessions/" + src.ID + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Body.Close()

	up, err := http.Post(srv.URL+"/v1/sessions"+configQuery(`{"algorithm":"bvh","dt":0.005,"eps":0}`), snapshotContentType, snap.Body)
	if err != nil {
		t.Fatal(err)
	}
	if up.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d", up.StatusCode)
	}
	eff := decodeBody[Info](t, up).Config
	if eff.Algorithm != "bvh" || eff.DT != 0.005 || eff.Eps != 0 {
		t.Errorf("snapshot upload config not honoured: %+v", eff)
	}

	// A malformed config query param is a config error, not a generic 400.
	bad, err := http.Post(srv.URL+"/v1/sessions?config=%7Bnope", snapshotContentType, strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad config query status %d", bad.StatusCode)
	}
	if e := decodeBody[errorResponse](t, bad); e.Error.Code != CodeInvalidConfig {
		t.Errorf("bad config query code %q, want %q", e.Error.Code, CodeInvalidConfig)
	}
}

func TestJobConfigSurface(t *testing.T) {
	_, _, srv := newJobServer(t, testConfig(), jobs.Config{Workers: 1})

	// Config object: accepted, echoed resolved.
	resp := postJSON(t, srv.URL+"/v1/jobs",
		`{"workload":"plummer","n":48,"steps":4,"config":{"algorithm":"octree","dt":0.001,"eps":0}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	info := decodeBody[jobs.Info](t, resp)
	if info.Config.Algorithm != "octree" || info.Config.DT != 0.001 || info.Config.Eps != 0 {
		t.Errorf("job config echo %+v", info.Config)
	}
	if info.Algorithm != "octree" || info.DT != 0.001 {
		t.Errorf("job summary fields algorithm=%q dt=%v do not mirror the config", info.Algorithm, info.DT)
	}

	// The explicit eps=0 really reaches the session the worker creates.
	done := waitJobState(t, srv, info.ID, jobs.StateSucceeded)
	sresp, err := http.Get(srv.URL + "/v1/sessions/" + done.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	if eff := decodeBody[Info](t, sresp).Config; eff.Eps != 0 || eff.Algorithm != "octree" {
		t.Errorf("backing session config %+v", eff)
	}

	// Invalid config fails with the stable invalid_config code.
	resp = postJSON(t, srv.URL+"/v1/jobs", `{"workload":"plummer","n":48,"steps":4,"config":{"dt":-1}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid config status %d", resp.StatusCode)
	}
	if e := decodeBody[errorResponse](t, resp); e.Error.Code != CodeInvalidConfig {
		t.Errorf("invalid config code %q, want %q", e.Error.Code, CodeInvalidConfig)
	}
}
