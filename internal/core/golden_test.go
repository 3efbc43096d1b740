package core

// Golden accuracy tests for the flat (SoA) force path: the Section V-A
// validation gate against an AoS reference integrator, and equivalence of
// the adaptive tree-reuse (refit) path with the always-rebuild baseline.

import (
	"math"
	"testing"

	"nbody/internal/body"
	"nbody/internal/grav"
	"nbody/internal/vec"
	"nbody/internal/workload"
)

// aosReference integrates ps with a naive AoS all-pairs kernel under the
// same kick-drift-kick scheme as Sim.Step. It is deliberately written
// against []body.Particle — a completely independent data layout from the
// SoA engine — so it cross-checks the flat kernels' arithmetic, not just
// their traversal order.
func aosReference(ps []body.Particle, p grav.Params, dt float64, steps int) []body.Particle {
	eps2 := p.Eps * p.Eps
	forces := func() {
		for i := range ps {
			var a vec.V3
			for j := range ps {
				if i == j {
					continue
				}
				d := ps[j].Pos.Sub(ps[i].Pos)
				r2 := d.Dot(d) + eps2
				if r2 == 0 {
					continue
				}
				inv := 1 / math.Sqrt(r2)
				a = a.Add(d.Scale(ps[j].Mass * inv * inv * inv))
			}
			ps[i].Acc = a.Scale(p.G)
		}
	}
	forces()
	for s := 0; s < steps; s++ {
		for i := range ps {
			ps[i].Vel = ps[i].Vel.Add(ps[i].Acc.Scale(dt / 2))
			ps[i].Pos = ps[i].Pos.Add(ps[i].Vel.Scale(dt))
		}
		forces()
		for i := range ps {
			ps[i].Vel = ps[i].Vel.Add(ps[i].Acc.Scale(dt / 2))
		}
	}
	return ps
}

// rmsL2 returns the root-mean-square L2 distance between two position sets
// indexed by original body ID.
func rmsL2(a, b [][3]float64) float64 {
	var sum2 float64
	for i := range a {
		for k := 0; k < 3; k++ {
			d := a[i][k] - b[i][k]
			sum2 += d * d
		}
	}
	return math.Sqrt(sum2 / float64(len(a)))
}

// positionsByID extracts final positions keyed by original body ID, the
// permutation-proof comparison key (tree solvers reorder bodies).
func positionsByID(sys *body.System) [][3]float64 {
	pos := make([][3]float64, sys.N())
	for i := 0; i < sys.N(); i++ {
		pos[sys.ID[i]] = [3]float64{sys.PosX[i], sys.PosY[i], sys.PosZ[i]}
	}
	return pos
}

// TestGoldenL2SolarValidation replicates the paper's Section V-A gate on
// the flat layout: one simulated day (24 steps of dt = 1 hour) of the
// synthetic solar-system catalogue, G in AU³/(M☉·day²), ε = 0, θ = 0.5.
// Every solver's RMS L2 position error against the AoS all-pairs reference
// must stay below 1e-6 AU.
func TestGoldenL2SolarValidation(t *testing.T) {
	const (
		n     = 1024
		seed  = 42
		steps = 24
		dt    = 1.0 / 24
		tol   = 1e-6
	)
	params := grav.Params{G: workload.GSolar, Eps: 0, Theta: 0.5}

	refPs := aosReference(workload.SolarSystemBelt(n, seed).Particles(), params, dt, steps)
	ref := make([][3]float64, n)
	for _, p := range refPs {
		ref[p.ID] = [3]float64{p.Pos.X, p.Pos.Y, p.Pos.Z}
	}

	for _, alg := range []Algorithm{AllPairs, Octree, BVH} {
		for _, lay := range Layouts() {
			sys := workload.SolarSystemBelt(n, seed)
			sim, err := New(Config{Algorithm: alg, Layout: lay, DT: dt, Params: params}, sys)
			if err != nil {
				t.Fatalf("%v/%v: %v", alg, lay, err)
			}
			if err := sim.Run(steps); err != nil {
				t.Fatalf("%v/%v: %v", alg, lay, err)
			}
			if rms := rmsL2(ref, positionsByID(sys)); rms >= tol {
				t.Errorf("%v/%v: RMS L2 position error %.3g exceeds the %.0e AU gate", alg, lay, rms, tol)
			}
		}
	}
}

// TestRefitMatchesRebuild runs the adaptive tree-reuse path against the
// always-rebuild baseline on the same workload: with refits actually
// happening, permutation-invariant observables must agree within the
// approximation tolerance, and the refit/rebuild counters must reflect the
// policy. The system is just above allpairs.DirectMaxN, so the force passes
// walk the refitted trees.
func TestRefitMatchesRebuild(t *testing.T) {
	const (
		n     = 1200
		steps = 20
	)
	p := grav.Params{G: 1, Eps: 0.05, Theta: 0.5}

	for _, alg := range []Algorithm{Octree, BVH} {
		run := func(threshold float64) (*Sim, *body.System) {
			sys := workload.Plummer(n, 9)
			sim, err := New(Config{Algorithm: alg, DT: 1e-4, Params: p, RefitThreshold: threshold}, sys)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Run(steps); err != nil {
				t.Fatal(err)
			}
			return sim, sys
		}

		base, baseSys := run(0)
		if base.Refits() != 0 || base.Rebuilds() != steps+1 {
			t.Errorf("%v baseline: refits=%d rebuilds=%d, want 0/%d", alg, base.Refits(), base.Rebuilds(), steps+1)
		}

		// A generous threshold at a tiny timestep keeps the tree reusable
		// for essentially the whole run.
		refit, refitSys := run(0.05)
		if refit.Refits() == 0 {
			t.Errorf("%v adaptive: no refit passes happened (rebuilds=%d)", alg, refit.Rebuilds())
		}
		if refit.Rebuilds()+refit.Refits() != steps+1 {
			t.Errorf("%v adaptive: rebuilds+refits = %d+%d, want %d force passes",
				alg, refit.Rebuilds(), refit.Refits(), steps+1)
		}

		// Tree approximation breaks exact third-law symmetry, so the two
		// runs' centers of mass agree only to the approximation level.
		com := baseSys.CenterOfMass().Sub(refitSys.CenterOfMass()).Norm()
		if com > 1e-8 {
			t.Errorf("%v: refit run center of mass drifted %g from rebuild run", alg, com)
		}
		if rms := rmsL2(positionsByID(baseSys), positionsByID(refitSys)); rms > 1e-6 {
			t.Errorf("%v: refit-vs-rebuild RMS position divergence %g", alg, rms)
		}
	}
}

// TestRefitFallsBackOnFastBodies checks the high-velocity fallback: when
// bodies move far enough per step, the drift bound crosses the threshold
// and the engine performs full rebuilds instead of trusting stale bounds.
func TestRefitFallsBackOnFastBodies(t *testing.T) {
	const (
		n     = 400
		steps = 15
	)
	sys := workload.Plummer(n, 3)
	// Crank velocities so each step moves the fastest body ~10% of the
	// system extent — far past any reasonable refit threshold.
	for i := 0; i < n; i++ {
		sys.VelX[i] *= 500
		sys.VelY[i] *= 500
		sys.VelZ[i] *= 500
	}
	sim, err := New(Config{
		Algorithm:      Octree,
		DT:             1e-3,
		Params:         grav.Params{G: 1, Eps: 0.05, Theta: 0.5},
		RefitThreshold: 1e-4,
	}, sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(steps); err != nil {
		t.Fatal(err)
	}
	if sim.Rebuilds() < steps {
		t.Errorf("fast bodies: rebuilds=%d refits=%d, expected near-every-step rebuilds", sim.Rebuilds(), sim.Refits())
	}
}

// TestRebuildCadenceCapWithRefit checks RebuildEvery acting as a hard cap
// on top of adaptive reuse: even when drift never crosses the threshold, a
// full rebuild happens at least every k steps.
func TestRebuildCadenceCapWithRefit(t *testing.T) {
	const (
		n     = 400
		steps = 20
		k     = 5
	)
	sys := workload.Plummer(n, 11)
	sim, err := New(Config{
		Algorithm:      BVH,
		DT:             1e-7, // essentially frozen bodies: drift never triggers
		Params:         grav.Params{G: 1, Eps: 0.05, Theta: 0.5},
		RebuildEvery:   k,
		RefitThreshold: 0.5,
	}, sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(steps); err != nil {
		t.Fatal(err)
	}
	// Force passes run at step counters 0..steps-1 (plus the initial build
	// at 0); the cap triggers at counters k, 2k, ... within that range.
	want := 1 + (steps-1)/k
	if sim.Rebuilds() != want {
		t.Errorf("cadence cap: rebuilds=%d, want %d (refits=%d)", sim.Rebuilds(), want, sim.Refits())
	}
}
