package client

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestCreateSessionConfigWire checks the request wire shape of the config
// object — explicit zeros must be present, unset optionals absent — and
// that the echoed effective config decodes.
func TestCreateSessionConfigWire(t *testing.T) {
	var gotBody []byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotBody, _ = io.ReadAll(r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		io.WriteString(w, `{"id":"s-1","state":"idle","algorithm":"bvh","n":64,"dt":0.001,
			"config":{"algorithm":"bvh","layout":"flat","dt":0.001,"theta":0.5,"eps":0,"g":1,
			"sequential":false,"tree_reuse":{"rebuild_every":1,"refit_threshold":0.02}}}`)
	}))
	defer srv.Close()
	c, _ := newTestClient(t, srv)

	s, err := c.CreateSession(context.Background(), CreateSessionRequest{
		Workload: "plummer",
		N:        64,
		Config: &SessionConfig{
			Algorithm: "bvh",
			DT:        0.001,
			Eps:       Float64(0),
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	var wire map[string]any
	if err := json.Unmarshal(gotBody, &wire); err != nil {
		t.Fatal(err)
	}
	cfg, ok := wire["config"].(map[string]any)
	if !ok {
		t.Fatalf("request body has no config object: %s", gotBody)
	}
	if eps, ok := cfg["eps"].(float64); !ok || eps != 0 {
		t.Errorf("explicit eps=0 must be serialized: %s", gotBody)
	}
	if _, present := cfg["theta"]; present {
		t.Errorf("unset theta must be omitted: %s", gotBody)
	}
	for _, retired := range []string{"algorithm", "dt", "theta", "eps", "g"} {
		if _, present := wire[retired]; present {
			t.Errorf("retired flat field %q serialized beside config: %s", retired, gotBody)
		}
	}

	if s.Config.Algorithm != "bvh" || s.Config.Layout != "flat" || s.Config.Eps != 0 ||
		s.Config.TreeReuse.RefitThreshold != 0.02 {
		t.Errorf("echoed config decoded as %+v", s.Config)
	}
}

// TestJobSpecRoundTrip checks the drain-handoff reconstruction: a record
// resubmits through its resolved config with every field pinned, and a
// scenario-submitted one re-spells its generator inside the scenario
// object.
func TestJobSpecRoundTrip(t *testing.T) {
	eff := EffectiveConfig{
		Algorithm:  "octree",
		Layout:     "flat",
		DT:         0.5,
		Theta:      0.5,
		Eps:        0, // explicit zero: must be pinned, not dropped
		G:          2,
		Sequential: false,
		TreeReuse:  TreeReuseConfig{RebuildEvery: 4, RefitThreshold: 0.01},
	}
	j := Job{ID: "j-1", Workload: "plummer", N: 128, Seed: 9, Steps: 100,
		Class: "high", ChunkSteps: 10, Config: eff}

	spec := j.Spec()
	if spec.Config == nil {
		t.Fatal("record must resubmit through the config object")
	}
	if spec.Config.Eps == nil || *spec.Config.Eps != 0 {
		t.Errorf("explicit eps=0 not pinned: %+v", spec.Config.Eps)
	}
	if spec.Config.Theta == nil || *spec.Config.Theta != 0.5 ||
		spec.Config.TreeReuse == nil || spec.Config.TreeReuse.RebuildEvery != 4 {
		t.Errorf("pinned config %+v", spec.Config)
	}
	if spec.ID != "j-1" || spec.Workload != "plummer" || spec.N != 128 || spec.Seed != 9 ||
		spec.Steps != 100 || spec.Class != "high" || spec.ChunkSteps != 10 || spec.Scenario != nil {
		t.Errorf("spec %+v", spec)
	}

	j.Config.Scenario = "solar-system"
	spec = j.Spec()
	if spec.Scenario == nil || *spec.Scenario != (ScenarioSpec{Name: "solar-system", N: 128, Seed: 9}) {
		t.Errorf("scenario handoff %+v", spec.Scenario)
	}
	if spec.Workload != "" || spec.N != 0 || spec.Seed != 0 {
		t.Errorf("scenario spec must not also spell workload/n/seed: %+v", spec)
	}
}
