package simcfg

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzSpecResolve decodes arbitrary JSON as a Spec the way the HTTP layer
// does (unknown fields refused) and resolves it. Resolution must never
// panic; it either fails with the scenario-exclusion error or an
// *InvalidError, or yields an Effective the engine accepts and hands back
// unchanged (Effective → core.Config → Effective is the round trip
// checkpoints and job records depend on).
func FuzzSpecResolve(f *testing.F) {
	seeds := []string{
		`{"workload":"plummer","n":64,"config":{"dt":0.001}}`,
		`{"scenario":{"name":"solar-system","n":32,"seed":7}}`,
		`{"scenario":{"name":"tsne-embedding"},"config":{"algorithm":"bvh","eps":0,"pipeline":true}}`,
		`{"workload":"galaxy","n":8,"config":{"algorithm":"all-pairs-col","layout":"walk","dt":1e-4,"theta":0,"g":0,` +
			`"sequential":true,"tree_reuse":{"rebuild_every":5,"refit_threshold":0.03}}}`,
		// The retired kd-tree solver: a rejection seed.
		`{"workload":"galaxy","n":8,"config":{"algorithm":"kdtree","dt":1e-4}}`,
		`{"workload":"plummer","scenario":{"name":"plummer"}}`,
		`{"scenario":{"name":""}}`,
		`{"scenario":{"name":"plummer","n":-4}}`,
		`{"config":{"dt":-1}}`,
		`{"config":{"dt":1e-3,"tree_reuse":{"rebuild_every":-3,"refit_threshold":-1}}}`,
		`{"config":{"dt":1e-3,"theta":-5,"eps":-1}}`,
		`{}`,
		`null`,
		// The retired flat spelling: no longer part of a Spec.
		`{"workload":"plummer","n":64,"dt":1e-3}`,
		`{"workload":"plummer","n":64,"algorithm":"bvh","theta":0.7,"eps":0.01,"g":1,"sequential":true,"rebuild_every":2}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var s Spec
		if err := dec.Decode(&s); err != nil {
			return
		}
		eff, err := s.Resolve()
		if err != nil {
			var ie *InvalidError
			if !errors.Is(err, ErrScenarioExclusive) && !errors.As(err, &ie) {
				t.Fatalf("untyped error %v (%T) for %s", err, err, body)
			}
			return
		}
		ccfg, err := eff.CoreConfig()
		if err != nil {
			t.Fatalf("resolved config %+v rejected by CoreConfig: %v", eff, err)
		}
		back := EffectiveOf(ccfg)
		back.Scenario = eff.Scenario // an echo the engine config does not carry
		if back != eff {
			t.Fatalf("round trip changed the config:\n got %+v\nwant %+v", back, eff)
		}
	})
}
