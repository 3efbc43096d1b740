package simcfg

import (
	"errors"
	"math"
	"testing"

	"nbody/internal/core"
	"nbody/internal/grav"
	"nbody/internal/par"
	"nbody/internal/vec"
	"nbody/internal/workload"
)

func f(v float64) *float64 { return &v }

func TestResolveDefaultsOnly(t *testing.T) {
	_, err := resolve(nil)
	if err == nil {
		t.Fatal("dt is required; empty input must not resolve")
	}
	eff, err := resolve(&Config{DT: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	d := Defaults()
	if eff.Algorithm != d.Algorithm || eff.Layout != "flat" || eff.Theta != d.Theta ||
		eff.Eps != d.Eps || eff.G != d.G || eff.TreeReuse.RebuildEvery != 1 {
		t.Errorf("defaults not applied: %+v", eff)
	}
	if eff.DT != 0.5 {
		t.Errorf("dt %v", eff.DT)
	}
}

func TestResolveExplicitZeros(t *testing.T) {
	// The config object distinguishes explicit zero from absent — the
	// whole reason it exists.
	eff, err := resolve(&Config{DT: 0.1, Eps: f(0), G: f(0)})
	if err != nil {
		t.Fatal(err)
	}
	if eff.Eps != 0 || eff.G != 0 {
		t.Errorf("explicit zeros lost: eps=%v g=%v", eff.Eps, eff.G)
	}
	// Absent is not zero: the default applies.
	eff, err = resolve(&Config{DT: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if eff.Eps != Defaults().Eps {
		t.Errorf("absent eps must inherit the default, got %v", eff.Eps)
	}
}

// TestResolvePrecedence: defaults ← scenario pack preset ← config object,
// field-wise, with the pack expanded into the generator fields in place.
func TestResolvePrecedence(t *testing.T) {
	s := Spec{
		Scenario: &Scenario{Name: "solar-system", Seed: 4},
		Config:   &Config{DT: 0.4, Eps: f(0.01)},
	}
	eff, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if eff.DT != 0.4 || eff.Eps != 0.01 {
		t.Errorf("config must win over the pack preset: %+v", eff)
	}
	if eff.Theta != 0.3 {
		t.Errorf("pack preset must apply where config is silent: theta %v", eff.Theta)
	}
	if eff.G != Defaults().G || eff.Algorithm != Defaults().Algorithm {
		t.Errorf("defaults must apply where pack and config are silent: %+v", eff)
	}
	if eff.Scenario != "solar-system" {
		t.Errorf("scenario echo %q", eff.Scenario)
	}
	if s.Workload != "solarsystem" || s.N != 20_000 || s.Seed != 4 {
		t.Errorf("pack not expanded in place: %s/%d/%d", s.Workload, s.N, s.Seed)
	}

	// scenario.n overrides the pack's default body count.
	s = Spec{Scenario: &Scenario{Name: "plummer", N: 64}}
	if _, err := s.Resolve(); err != nil || s.N != 64 {
		t.Errorf("scenario.n override: n=%d err=%v", s.N, err)
	}
	// Without a scenario the generator fields pass through untouched.
	s = Spec{Workload: "galaxy", N: 9, Seed: 2, Config: &Config{DT: 0.1}}
	if eff, err := s.Resolve(); err != nil || eff.Scenario != "" || s.Workload != "galaxy" || s.N != 9 || s.Seed != 2 {
		t.Errorf("raw spec: %+v eff=%+v err=%v", s, eff, err)
	}
}

// TestResolveScenarioErrors: a pack beside top-level generator fields is the
// one non-InvalidError failure; everything else names its field.
func TestResolveScenarioErrors(t *testing.T) {
	for _, s := range []Spec{
		{Workload: "plummer", Scenario: &Scenario{Name: "plummer"}},
		{N: 8, Scenario: &Scenario{Name: "plummer"}},
		{Seed: 8, Scenario: &Scenario{Name: "plummer"}},
	} {
		if _, err := s.Resolve(); !errors.Is(err, ErrScenarioExclusive) {
			t.Errorf("%+v: err %v, want ErrScenarioExclusive", s, err)
		}
	}
	for field, s := range map[string]Spec{
		"scenario.name": {Scenario: &Scenario{}},
		"scenario.n":    {Scenario: &Scenario{Name: "plummer", N: -1}},
		"dt":            {Scenario: &Scenario{Name: "plummer"}, Config: &Config{DT: -1}},
	} {
		var ie *InvalidError
		if _, err := s.Resolve(); !errors.As(err, &ie) || ie.Field != field {
			t.Errorf("%+v: err %v, want *InvalidError on %q", s, err, field)
		}
	}
	s := Spec{Scenario: &Scenario{Name: "warp-core"}}
	var ie *InvalidError
	if _, err := s.Resolve(); !errors.As(err, &ie) || ie.Field != "scenario.name" {
		t.Errorf("unknown pack: err %v", err)
	}
}

func TestResolveTreeReuse(t *testing.T) {
	eff, err := resolve(&Config{DT: 0.1, TreeReuse: &TreeReuse{RefitThreshold: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	if eff.TreeReuse.RebuildEvery != 1 {
		t.Errorf("rebuild_every 0 must inherit the default: %+v", eff.TreeReuse)
	}
	if eff.TreeReuse.RefitThreshold != 0.05 {
		t.Errorf("refit threshold %v", eff.TreeReuse.RefitThreshold)
	}
	eff, err = resolve(&Config{DT: 0.1, TreeReuse: &TreeReuse{RebuildEvery: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if eff.TreeReuse.RebuildEvery != 4 || eff.TreeReuse.RefitThreshold != 0 {
		t.Errorf("rebuild_every lost: %+v", eff.TreeReuse)
	}
}

func TestResolveInvalidFields(t *testing.T) {
	cases := []struct {
		name  string
		cfg   *Config
		field string
	}{
		{"bad algorithm", &Config{Algorithm: "fmm", DT: 0.1}, "algorithm"},
		{"retired algorithm", &Config{Algorithm: "kdtree", DT: 0.1}, "algorithm"},
		{"bad layout", &Config{Layout: "diagonal", DT: 0.1}, "layout"},
		{"zero dt", &Config{}, "dt"},
		{"negative dt", &Config{DT: -1}, "dt"},
		{"nan dt", &Config{DT: math.NaN()}, "dt"},
		{"negative eps", &Config{DT: 0.1, Eps: f(-1)}, "eps"},
		{"negative theta", &Config{DT: 0.1, Theta: f(-0.5)}, "theta"},
		{"inf g", &Config{DT: 0.1, G: f(math.Inf(1))}, "g"},
		{"negative rebuild", &Config{DT: 0.1, TreeReuse: &TreeReuse{RebuildEvery: -1}}, "tree_reuse.rebuild_every"},
		{"nan refit", &Config{DT: 0.1, TreeReuse: &TreeReuse{RefitThreshold: math.NaN()}}, "tree_reuse.refit_threshold"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := resolve(tc.cfg)
			var ie *InvalidError
			if !errors.As(err, &ie) {
				t.Fatalf("want *InvalidError, got %v", err)
			}
			if ie.Field != tc.field {
				t.Errorf("field %q, want %q (%v)", ie.Field, tc.field, err)
			}
		})
	}
}

func TestResolvePipeline(t *testing.T) {
	b := func(v bool) *bool { return &v }
	eff, err := resolve(&Config{DT: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if eff.Pipeline {
		t.Error("pipeline must default to off")
	}
	eff, err = resolve(&Config{DT: 0.1, Pipeline: b(true)})
	if err != nil {
		t.Fatal(err)
	}
	if !eff.Pipeline {
		t.Error("explicit pipeline=true lost")
	}
	// Explicit false is distinguishable from absent, like every other
	// pointer-typed field.
	eff, err = resolve(&Config{DT: 0.1, Pipeline: b(false)})
	if err != nil {
		t.Fatal(err)
	}
	if eff.Pipeline {
		t.Error("explicit pipeline=false must resolve to off")
	}
	// Pipeline survives the Effective → core.Config → Effective round
	// trip that checkpoints and job records depend on.
	eff, err = resolve(&Config{DT: 0.1, Pipeline: b(true)})
	if err != nil {
		t.Fatal(err)
	}
	ccfg, err := eff.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	if back := EffectiveOf(ccfg); !back.Pipeline {
		t.Errorf("pipeline lost in round trip: %+v", back)
	}
}

func TestCoreConfigRoundTrip(t *testing.T) {
	eff, err := resolve(&Config{
		Algorithm: "bvh", Layout: "walk", DT: 0.25,
		Theta: f(0.9), Eps: f(0), G: f(2),
		TreeReuse: &TreeReuse{RebuildEvery: 3, RefitThreshold: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	ccfg, err := eff.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	back := EffectiveOf(ccfg)
	if back != eff {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, eff)
	}
}

// The wire enum, the engine enum and the constructor must not drift apart:
// every core.Algorithms() name resolves from a Spec, converts to an engine
// config, constructs and steps, and the default is one of them.
func TestEveryAlgorithmResolvesAndSteps(t *testing.T) {
	defaultListed := false
	for _, a := range core.Algorithms() {
		name := a.String()
		defaultListed = defaultListed || name == Defaults().Algorithm
		spec := Spec{Workload: "plummer", N: 8, Config: &Config{Algorithm: name, DT: 1e-3}}
		eff, err := spec.Resolve()
		if err != nil {
			t.Fatalf("%s: Resolve: %v", name, err)
		}
		ccfg, err := eff.CoreConfig()
		if err != nil {
			t.Fatalf("%s: CoreConfig: %v", name, err)
		}
		if ccfg.Algorithm != a {
			t.Fatalf("%s: CoreConfig selected %v", name, ccfg.Algorithm)
		}
		sim, err := core.New(ccfg, workload.Plummer(spec.N, 1))
		if err != nil {
			t.Fatalf("%s: core.New: %v", name, err)
		}
		if err := sim.Step(); err != nil {
			t.Fatalf("%s: Step: %v", name, err)
		}
	}
	if !defaultListed {
		t.Errorf("default algorithm %q is not in core.Algorithms()", Defaults().Algorithm)
	}
}

// A session of 256 bodies under the service defaults sums its forces
// directly (allpairs.DirectMaxN), so its accuracy does not depend on how
// its bodies happen to cluster at a given step. Through the tree walk, the
// share of bodies whose force was approximated wandered between 3 % and
// 13 % as such a session stepped, and the p90 error with it, between
// 1e-15 and 3e-5. The two Plummer inputs here (seeds 42001 and 42015) had
// 32 to 128 of their bodies approximated after each of 1, 600 and 1 600
// steps; every body must now be within 1e-13 of an independent pairwise
// loop. One worker, as the service runs a session.
func TestSmallSessionForcesAreExact(t *testing.T) {
	eff, err := resolve(&Config{DT: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := eff.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Runtime = par.NewRuntime(1, par.Dynamic)
	eps2 := cfg.Params.Eps2()
	for _, seed := range []uint64{42001, 42015} {
		sys, err := workload.ByName("plummer", 256, seed)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := core.New(cfg, sys)
		if err != nil {
			t.Fatal(err)
		}
		done := 0
		for _, steps := range []int{1, 600, 1600} {
			if err := sim.Run(steps - done); err != nil {
				t.Fatal(err)
			}
			done = steps
			for i := 0; i < sys.N(); i++ {
				var ax, ay, az, pot float64
				for j := 0; j < sys.N(); j++ {
					if j != i {
						grav.Accumulate(sys.PosX[j]-sys.PosX[i], sys.PosY[j]-sys.PosY[i], sys.PosZ[j]-sys.PosZ[i], sys.Mass[j], eps2, &ax, &ay, &az, &pot)
					}
				}
				want := vec.New(ax, ay, az).Scale(cfg.Params.G)
				if d := sys.Acc(i).Sub(want).Norm(); d > 1e-13*want.Norm() {
					t.Fatalf("seed %d after %d steps, body %d: acceleration %v, pairwise %v (relative error %.3g)",
						seed, steps, i, sys.Acc(i), want, d/want.Norm())
				}
			}
		}
	}
}
