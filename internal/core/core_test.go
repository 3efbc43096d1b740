package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"nbody/internal/allpairs"
	"nbody/internal/body"
	"nbody/internal/bvh"
	"nbody/internal/grav"
	"nbody/internal/metrics"
	"nbody/internal/octree"
	"nbody/internal/par"
	"nbody/internal/vec"
	"nbody/internal/workload"
)

func TestParseAlgorithm(t *testing.T) {
	for _, a := range Algorithms() {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseAlgorithm("fmm"); err == nil {
		t.Error("unknown algorithm accepted")
	}
	// The retired kd-tree solver's name is rejected like any unknown one,
	// and the error lists the names of Algorithms() and nothing else.
	var names []string
	for _, a := range Algorithms() {
		names = append(names, a.String())
	}
	want := `core: unknown algorithm "kdtree" (want one of ` + strings.Join(names, ", ") + ")"
	if _, err := ParseAlgorithm("kdtree"); err == nil || err.Error() != want {
		t.Errorf("ParseAlgorithm(kdtree) error = %v, want %q", err, want)
	}
	if Algorithm(99).String() == "" {
		t.Error("unknown algorithm String empty")
	}
}

func TestNewValidation(t *testing.T) {
	sys := workload.Plummer(10, 1)
	good := Config{DT: 0.01}
	if _, err := New(good, sys); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}

	if _, err := New(good, nil); err == nil {
		t.Error("nil system accepted")
	}
	if _, err := New(Config{DT: 0}, sys); err == nil {
		t.Error("zero timestep accepted")
	}
	if _, err := New(Config{DT: -1}, sys); err == nil {
		t.Error("negative timestep accepted")
	}
	if _, err := New(Config{DT: math.Inf(1)}, sys); err == nil {
		t.Error("infinite timestep accepted")
	}
	if _, err := New(Config{DT: 0.1, Algorithm: Algorithm(42)}, sys); err == nil {
		t.Error("bogus algorithm accepted")
	}
	if _, err := New(Config{DT: 0.1, Params: grav.Params{G: 1, Eps: -1}}, sys); err == nil {
		t.Error("invalid params accepted")
	}

	bad := workload.Plummer(10, 1)
	bad.PosX[3] = math.NaN()
	if _, err := New(good, bad); err == nil {
		t.Error("NaN system accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	sys := workload.Plummer(10, 1)
	s, err := New(Config{DT: 0.01}, sys)
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	if cfg.Params != grav.DefaultParams() {
		t.Errorf("params default: %+v", cfg.Params)
	}
	if cfg.Runtime == nil || cfg.RebuildEvery != 1 {
		t.Errorf("defaults: runtime=%v rebuild=%d", cfg.Runtime, cfg.RebuildEvery)
	}
}

// All four algorithms integrating the same small system must agree closely
// (θ=0 makes the trees exact).
func TestAlgorithmsAgreeOnTrajectory(t *testing.T) {
	const n = 300
	const steps = 10
	p := grav.Params{G: 1, Eps: 0.05, Theta: 0}

	// Use the BVH run as reference... but BVH permutes bodies. Instead
	// compare permutation-invariant observables: center of mass, kinetic
	// energy, total energy.
	type obs struct {
		com      vec.V3
		kin, tot float64
	}
	results := map[Algorithm]obs{}
	for _, a := range Algorithms() {
		sys := workload.Plummer(n, 5)
		sim, err := New(Config{Algorithm: a, DT: 0.001, Params: p}, sys)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(steps); err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		d := sim.Diagnostics(true)
		results[a] = obs{sys.CenterOfMass(), d.KineticEnergy, d.TotalEnergy}
	}
	ref := results[AllPairs]
	for a, r := range results {
		if r.com.Sub(ref.com).Norm() > 1e-9 {
			t.Errorf("%v: com %v vs %v", a, r.com, ref.com)
		}
		if math.Abs(r.kin-ref.kin) > 1e-7*(1+math.Abs(ref.kin)) {
			t.Errorf("%v: kinetic %v vs %v", a, r.kin, ref.kin)
		}
		if math.Abs(r.tot-ref.tot) > 1e-7*(1+math.Abs(ref.tot)) {
			t.Errorf("%v: total energy %v vs %v", a, r.tot, ref.tot)
		}
	}
}

func TestEnergyConservationGalaxy(t *testing.T) {
	// The paper validates that the galaxy simulations conserve mass and
	// energy; run each tree algorithm for a while and check drift.
	// The innermost disk orbits have periods of a few milliunits, so the
	// timestep must be well below that for the symplectic error to stay
	// bounded.
	for _, a := range []Algorithm{Octree, BVH} {
		sys := workload.GalaxyCollision(2000, 9)
		sim, err := New(Config{Algorithm: a, DT: 2e-5, Params: grav.Params{G: 1, Eps: 0.05, Theta: 0.3}}, sys)
		if err != nil {
			t.Fatal(err)
		}
		mass0 := sys.TotalMass()
		e0 := sim.Diagnostics(true).TotalEnergy
		if err := sim.Run(50); err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		d := sim.Diagnostics(true)
		if math.Abs(d.Mass-mass0) > 1e-9*mass0 {
			t.Errorf("%v: mass %v -> %v", a, mass0, d.Mass)
		}
		if drift := math.Abs(d.TotalEnergy-e0) / math.Abs(e0); drift > 0.01 {
			t.Errorf("%v: energy drift %v over 50 steps", a, drift)
		}
	}
}

func TestSequentialMatchesParallel(t *testing.T) {
	// Same algorithm, sequential vs parallel: permutation-invariant
	// observables must agree to reduction-reassociation tolerance.
	for _, a := range []Algorithm{Octree, BVH, AllPairs} {
		run := func(seqential bool) Diagnostics {
			sys := workload.Plummer(500, 21)
			sim, err := New(Config{Algorithm: a, DT: 0.005, Sequential: seqential,
				Params: grav.Params{G: 1, Eps: 0.05, Theta: 0.5}}, sys)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Run(5); err != nil {
				t.Fatal(err)
			}
			return sim.Diagnostics(true)
		}
		seq := run(true)
		parl := run(false)
		if math.Abs(seq.TotalEnergy-parl.TotalEnergy) > 1e-6*(1+math.Abs(seq.TotalEnergy)) {
			t.Errorf("%v: seq energy %v vs par %v", a, seq.TotalEnergy, parl.TotalEnergy)
		}
	}
}

func TestRebuildEveryApproximation(t *testing.T) {
	// Tree reuse must stay close to the every-step-rebuild trajectory
	// over a short horizon, and every structure pass is either a rebuild
	// or a refit. The system is above allpairs.DirectMaxN, so the force
	// passes walk the reused trees.
	const steps = 20
	run := func(rebuildEvery int, a Algorithm) (*Sim, Diagnostics) {
		sys := workload.GalaxyCollision(1200, 23)
		sim, err := New(Config{Algorithm: a, DT: 0.0005, RebuildEvery: rebuildEvery,
			Params: grav.Params{G: 1, Eps: 0.05, Theta: 0.3}}, sys)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(steps); err != nil {
			t.Fatal(err)
		}
		return sim, sim.Diagnostics(true)
	}
	for _, a := range []Algorithm{Octree, BVH} {
		_, every := run(1, a)
		sim, reuse := run(4, a)
		if math.Abs(every.TotalEnergy-reuse.TotalEnergy) > 0.02*math.Abs(every.TotalEnergy) {
			t.Errorf("%v: rebuild-every-4 energy %v vs %v", a, reuse.TotalEnergy, every.TotalEnergy)
		}
		if sim.Rebuilds()+sim.Refits() != steps+1 || sim.Refits() == 0 {
			t.Errorf("%v: rebuilds+refits = %d+%d, want %d force passes with some refits",
				a, sim.Rebuilds(), sim.Refits(), steps+1)
		}
		if sim.Breakdown().Elapsed(metrics.PhaseRefit) <= 0 {
			t.Errorf("%v: cadence reuse recorded no refit time", a)
		}
		// BVH sums are schedule-independent, so a second run of the same
		// configuration lands every body on the same bits. (Which bits
		// depends on the summation order of the host's force kernel and
		// on whether its compiler fuses multiply-adds, so no checksum is
		// pinned.)
		if a == BVH {
			again, _ := run(4, a)
			p, q := positionsByID(sim.System()), positionsByID(again.System())
			for id := range p {
				for c := range p[id] {
					if math.Float64bits(p[id][c]) != math.Float64bits(q[id][c]) {
						t.Fatalf("bvh rebuild-every-4: body %d component %d differs between two runs: %v vs %v",
							id, c, p[id][c], q[id][c])
					}
				}
			}
		}
	}
}

// Every solver records force and update; the trees record their own
// structure phases and no other's; the all-pairs baselines record none.
func TestBreakdownPhases(t *testing.T) {
	bbox, sort, build, moments := metrics.PhaseBoundingBox, metrics.PhaseSort, metrics.PhaseBuild, metrics.PhaseMultipoles
	force, update := metrics.PhaseForce, metrics.PhaseUpdate
	want := map[Algorithm][]metrics.Phase{
		AllPairs:    {force, update},
		AllPairsCol: {force, update},
		Octree:      {bbox, build, moments, force, update},
		BVH:         {bbox, sort, build, force, update},
	}
	for _, alg := range Algorithms() {
		for _, layout := range Layouts() {
			sim, err := New(Config{Algorithm: alg, Layout: layout, DT: 0.001}, workload.GalaxyCollision(2000, 27))
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Run(3); err != nil {
				t.Fatal(err)
			}
			b := sim.Breakdown()
			if b.Steps() != 3 {
				t.Errorf("%v/%v: steps = %d", alg, layout, b.Steps())
			}
			for _, p := range []metrics.Phase{bbox, sort, build, moments, metrics.PhaseRefit, force, update} {
				if recorded := b.Elapsed(p) > 0; recorded != slices.Contains(want[alg], p) {
					t.Errorf("%v/%v: phase %v recorded = %v", alg, layout, p, recorded)
				}
			}
			tree := alg == Octree || alg == BVH
			if sim.Refits() != 0 || (sim.Rebuilds() > 0) != tree {
				t.Errorf("%v/%v: %d rebuilds, %d refits", alg, layout, sim.Rebuilds(), sim.Refits())
			}
		}
	}
}

func TestStepCountAndRunErrors(t *testing.T) {
	sys := workload.Plummer(50, 29)
	sim, err := New(Config{DT: 0.01}, sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(7); err != nil {
		t.Fatal(err)
	}
	if sim.StepCount() != 7 {
		t.Errorf("StepCount = %d", sim.StepCount())
	}
	if sim.System() != sys {
		t.Error("System() returned a different object")
	}
}

func TestAllPairsColSequential(t *testing.T) {
	sys := workload.Plummer(100, 31)
	sim, err := New(Config{Algorithm: AllPairsCol, DT: 0.01, Sequential: true}, sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(2); err != nil {
		t.Fatal(err)
	}
}

func TestDiagnosticsApproxVsExact(t *testing.T) {
	for _, a := range Algorithms() {
		for _, layout := range Layouts() {
			sys := workload.Plummer(2000, 33)
			sim, err := New(Config{Algorithm: a, Layout: layout, DT: 0.01, Params: grav.Params{G: 1, Eps: 0.05, Theta: 0.4}}, sys)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Run(1); err != nil {
				t.Fatal(err)
			}
			exact := sim.Diagnostics(true)
			approx := sim.Diagnostics(false)
			if math.Abs(exact.Potential-approx.Potential) > 0.02*math.Abs(exact.Potential) {
				t.Errorf("%v %v: approx potential %v vs exact %v", a, layout, approx.Potential, exact.Potential)
			}
			if exact.Mass != approx.Mass {
				t.Errorf("%v %v: mass differs", a, layout)
			}
		}
	}
}

// Mid-step the last force pass's potentials describe no state the bodies
// are in, and AllPairsCol's pair scatter writes none: there the sample is
// the pairwise sum.
func TestDiagnosticsFallsBackToPairwise(t *testing.T) {
	for _, a := range []Algorithm{Octree, AllPairsCol} {
		sim, err := New(Config{Algorithm: a, DT: 0.01, Params: grav.Params{G: 1, Eps: 0.05, Theta: 0.4}}, workload.Plummer(2000, 37))
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(1); err != nil {
			t.Fatal(err)
		}
		if a == Octree {
			if err := sim.advance(nil, curForce); err != nil || !sim.MidStep() {
				t.Fatalf("advance to force: %v, MidStep %v", err, sim.MidStep())
			}
		}
		if exact, approx := sim.Diagnostics(true).Potential, sim.Diagnostics(false).Potential; exact != approx {
			t.Errorf("%v MidStep %v: Diagnostics(false) potential %v, pairwise %v", a, sim.MidStep(), approx, exact)
		}
	}
}

// Up to allpairs.DirectMaxN bodies the pairwise sum is no dearer than a
// tree walk, so the flat force pass returns it bit for bit — not a
// θ-approximation — and Diagnostics(false), which reduces the potentials
// that pass wrote, agrees with the pairwise energy to rounding (the reduce
// ½·Σ mᵢφᵢ sums in another order than the pair loop). One body more and
// both walk the tree: θ-sized differences.
func TestDiagnosticsSmallNIsExact(t *testing.T) {
	for _, a := range []Algorithm{Octree, BVH} {
		for _, n := range []int{allpairs.DirectMaxN, allpairs.DirectMaxN + 1} {
			sys := workload.Plummer(n, 34)
			sim, err := New(Config{Algorithm: a, DT: 0.01, Sequential: true, Params: grav.Params{G: 1, Eps: 0.05, Theta: 0.8}}, sys)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Run(1); err != nil {
				t.Fatal(err)
			}
			small := n <= allpairs.DirectMaxN
			exact, approx := sim.Diagnostics(true).Potential, sim.Diagnostics(false).Potential
			if rel := math.Abs(approx-exact) / math.Abs(exact); small && rel > 1e-12 || !small && rel <= 1e-9 {
				t.Errorf("%v n=%d: Diagnostics(false) potential %v, pairwise %v (relative difference %.3g)", a, n, approx, exact, rel)
			}
			// KDK's last force pass saw the final positions.
			ref := sys.Clone()
			allpairs.AllPairs(sim.rt, par.Seq, ref, sim.Config().Params)
			differ := 0
			for i := 0; i < n; i++ {
				if sys.Acc(i) != ref.Acc(i) {
					differ++
				}
			}
			if (differ == 0) != small {
				t.Errorf("%v n=%d: %d of %d accelerations differ from the pairwise sum", a, n, differ, n)
			}
		}
	}
}

// Diagnostics is an observer: sampling must not change the trajectory. The
// sample before step 0 runs that step's initial structure and force phases,
// which the step then skips; every later sample reduces the potentials the
// last force pass wrote and touches nothing else. Compared by body ID (tree
// solvers permute), bit for bit: both default solvers are reproducible run
// to run.
func TestDiagnosticsDoesNotPerturbTrajectory(t *testing.T) {
	const (
		n     = 4 * allpairs.DirectMaxN
		steps = 8
	)
	for _, alg := range []Algorithm{Octree, BVH} {
		for _, threshold := range []float64{0, 0.05} {
			run := func(sample bool) *Sim {
				cfg := Config{
					Algorithm:      alg,
					DT:             1e-3,
					Params:         grav.Params{G: 1, Eps: 0.05, Theta: 0.5},
					RefitThreshold: threshold,
				}
				sim, err := New(cfg, workload.Plummer(n, 36))
				if err != nil {
					t.Fatal(err)
				}
				for k := 0; k < steps; k++ {
					if sample {
						sim.Diagnostics(false)
						if sim.StepCount() != k || sim.MidStep() {
							t.Fatalf("%v: sample before step %d left StepCount %d, MidStep %v", alg, k, sim.StepCount(), sim.MidStep())
						}
					}
					if err := sim.Step(); err != nil {
						t.Fatal(err)
					}
				}
				return sim
			}
			plain, sampled := run(false), run(true)
			if threshold > 0 && plain.Refits() == 0 {
				t.Fatalf("%v threshold %v: no refit step, the reuse path is not exercised", alg, threshold)
			}
			want, got := positionsByID(plain.System()), positionsByID(sampled.System())
			moved := 0
			for i := range want {
				if want[i] != got[i] {
					moved++
				}
			}
			if moved != 0 {
				t.Errorf("%v threshold %v: sampling moved %d of %d bodies", alg, threshold, moved, n)
			}
			if plain.Rebuilds() != sampled.Rebuilds() || plain.Refits() != sampled.Refits() {
				t.Errorf("%v threshold %v: %d rebuilds and %d refits sampled, %d and %d not", alg, threshold,
					sampled.Rebuilds(), sampled.Refits(), plain.Rebuilds(), plain.Refits())
			}

			// After a committed step the sample touches nothing the next
			// step reads: body order, topology, drift accounting; and it
			// runs no phase, so it neither builds nor walks a tree.
			order := append([]int32(nil), sampled.System().ID...)
			drift, rebuilds := sampled.driftAcc, sampled.Rebuilds()
			spent := sampled.Breakdown().Total()
			sampled.Diagnostics(false)
			if d := sampled.Breakdown().Total() - spent; d != 0 {
				t.Errorf("%v threshold %v: Diagnostics ran %v of step phases", alg, threshold, d)
			}
			for i, id := range sampled.System().ID {
				if id != order[i] {
					t.Fatalf("%v threshold %v: Diagnostics permuted the bodies (slot %d)", alg, threshold, i)
				}
			}
			if sampled.driftAcc != drift || sampled.Rebuilds() != rebuilds {
				t.Errorf("%v threshold %v: Diagnostics changed drift %v → %v, rebuilds %d → %d",
					alg, threshold, drift, sampled.driftAcc, rebuilds, sampled.Rebuilds())
			}
		}
	}
}

func TestMomentumConservation(t *testing.T) {
	for _, a := range []Algorithm{Octree, AllPairs} {
		sys := workload.Plummer(500, 35)
		p0 := sys.Momentum()
		sim, err := New(Config{Algorithm: a, DT: 0.005, Params: grav.Params{G: 1, Eps: 0.05, Theta: 0}}, sys)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(20); err != nil {
			t.Fatal(err)
		}
		if d := sys.Momentum().Sub(p0).Norm(); d > 1e-9 {
			t.Errorf("%v: momentum drift %g", a, d)
		}
	}
}

func TestValidateEveryCatchesBlowup(t *testing.T) {
	// Two point masses started at nearly the same spot with no softening
	// and a huge timestep: velocities explode within a few steps. The
	// health check must turn that into an error rather than NaN output.
	// Masses large enough that m/r² overflows float64 at this separation.
	sys := body.NewSystem(2)
	sys.Set(0, 1e300, vec.New(0, 0, 0), vec.Zero)
	sys.Set(1, 1e300, vec.New(1e-8, 0, 0), vec.Zero)
	sim, err := New(Config{
		Algorithm:     AllPairs,
		DT:            1e6,
		Params:        grav.Params{G: 1, Eps: 0, Theta: 0.5},
		ValidateEvery: 1,
	}, sys)
	if err != nil {
		t.Fatal(err)
	}
	runErr := sim.Run(50)
	if runErr == nil {
		t.Fatal("blow-up not detected")
	}
}

func TestValidateEveryOffByDefault(t *testing.T) {
	sys := workload.Plummer(20, 43)
	sim, err := New(Config{DT: 0.01}, sys)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Config().ValidateEvery != 0 {
		t.Error("ValidateEvery should default to off")
	}
}

func TestCustomRuntime(t *testing.T) {
	sys := workload.Plummer(200, 37)
	rt := par.NewRuntime(2, par.Static)
	sim, err := New(Config{DT: 0.01, Runtime: rt}, sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(2); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyAndTinySystems(t *testing.T) {
	for _, n := range []int{0, 1, 2} {
		for _, a := range Algorithms() {
			sys := workload.Plummer(n, 39)
			sim, err := New(Config{Algorithm: a, DT: 0.01}, sys)
			if err != nil {
				t.Fatalf("n=%d %v: %v", n, a, err)
			}
			if err := sim.Run(3); err != nil {
				t.Fatalf("n=%d %v: %v", n, a, err)
			}
		}
	}
}

func TestVariantConfigsRun(t *testing.T) {
	// Gather-moments octree, large BVH leaves and the box-distance BVH
	// criterion must all integrate without error.
	sys := workload.GalaxyCollision(500, 41)
	configs := []Config{
		{Algorithm: Octree, DT: 0.001, Octree: octree.Config{GatherMoments: true}},
		{Algorithm: BVH, DT: 0.001, BVH: bvh.Config{LeafSize: 8}},
		{Algorithm: BVH, DT: 0.001, BVH: bvh.Config{Criterion: bvh.BoxDistance}},
	}
	for i, cfg := range configs {
		sim, err := New(cfg, sys.Clone())
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if err := sim.Run(3); err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
	}
}

func TestRunContextCancelled(t *testing.T) {
	sys := workload.Plummer(100, 7)
	sim, err := New(Config{Algorithm: AllPairs, DT: 0.01}, sys)
	if err != nil {
		t.Fatal(err)
	}

	// An already-cancelled context stops the run before the first step.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sim.RunContext(ctx, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext on cancelled ctx = %v, want context.Canceled", err)
	}
	if sim.StepCount() != 0 {
		t.Fatalf("cancelled run advanced %d steps, want 0", sim.StepCount())
	}

	// A deadline in the past behaves the same with DeadlineExceeded.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if err := sim.RunContext(dctx, 10); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext past deadline = %v, want context.DeadlineExceeded", err)
	}
}

// cancelAfterN is a context.Context whose Err flips to Canceled after n
// checks, making mid-run cancellation deterministic without goroutines
// (Sim is not safe for concurrent use; the serve layer locks around it).
type cancelAfterN struct {
	context.Context
	n int
}

func (c *cancelAfterN) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

func TestRunContextCancelMidRun(t *testing.T) {
	sys := workload.Plummer(300, 11)
	sim, err := New(Config{Algorithm: AllPairs, DT: 0.001}, sys)
	if err != nil {
		t.Fatal(err)
	}

	// The context allows exactly two checks. Cancellation is checked
	// between phases, not just between steps, so the run stops inside the
	// first step — before any step commits — leaving a resumable
	// in-flight step behind.
	ctx := &cancelAfterN{Context: context.Background(), n: 2}
	if err := sim.RunContext(ctx, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel = %v, want context.Canceled", err)
	}
	if n := sim.StepCount(); n != 0 {
		t.Fatalf("cancelled run committed %d steps, want 0", n)
	}
	if !sim.MidStep() {
		t.Fatal("phase-granular cancel should leave a step in flight")
	}
	// The next Step resumes and commits the in-flight step; the system is
	// back at a valid step boundary.
	if err := sim.Step(); err != nil {
		t.Fatalf("resuming interrupted step: %v", err)
	}
	if n := sim.StepCount(); n != 1 || sim.MidStep() {
		t.Fatalf("after resume: steps=%d midStep=%v, want 1/false", n, sim.MidStep())
	}
	if err := sim.System().Validate(); err != nil {
		t.Fatalf("state invalid after resume: %v", err)
	}
}

func TestRunIsRunContextBackground(t *testing.T) {
	sys := workload.Plummer(50, 13)
	sim, err := New(Config{Algorithm: AllPairs, DT: 0.01}, sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(3); err != nil {
		t.Fatal(err)
	}
	if sim.StepCount() != 3 {
		t.Fatalf("Run(3) advanced %d steps", sim.StepCount())
	}
}

// BenchmarkDiagnostics times the energy sample the service takes after each
// step request: a 2 048-body Plummer octree on one worker, sampled after a
// step.
func BenchmarkDiagnostics(b *testing.B) {
	sim, err := New(Config{Algorithm: Octree, DT: 1e-3, Runtime: par.NewRuntime(1, par.Dynamic)}, workload.Plummer(2048, 38))
	if err != nil {
		b.Fatal(err)
	}
	if err := sim.Step(); err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		sim.Diagnostics(false)
	}
}
