package integrator

import (
	"math"
	"testing"

	"nbody/internal/allpairs"
	"nbody/internal/body"
	"nbody/internal/grav"
	"nbody/internal/par"
	"nbody/internal/vec"
)

var rt = par.NewRuntime(0, par.Dynamic)

// verletStep performs one KDK step with the exact all-pairs force.
func verletStep(s *body.System, p grav.Params, dt float64) {
	KickHalf(rt, par.ParUnseq, s, dt)
	Drift(rt, par.ParUnseq, s, dt)
	allpairs.AllPairs(rt, par.ParUnseq, s, p)
	KickHalf(rt, par.ParUnseq, s, dt)
}

// twoBodyCircular sets up a circular two-body orbit of unit masses at
// separation 2 about the origin: v = sqrt(G·M_total/(4r)) … derived so that
// the relative orbit is circular with zero softening.
func twoBodyCircular() (*body.System, grav.Params) {
	p := grav.Params{G: 1, Eps: 0, Theta: 0}
	s := body.NewSystem(2)
	// Each body circles the COM at radius 1; a = G·m/(2r)² = 1/4 must
	// equal v²/r ⇒ v = 1/2.
	s.Set(0, 1, vec.New(-1, 0, 0), vec.New(0, -0.5, 0))
	s.Set(1, 1, vec.New(1, 0, 0), vec.New(0, 0.5, 0))
	return s, p
}

func totalEnergy(s *body.System, p grav.Params) float64 {
	return s.KineticEnergy() + allpairs.PotentialEnergy(rt, par.Par, s, p)
}

func TestKickDriftBasic(t *testing.T) {
	s := body.NewSystem(1)
	s.Set(0, 1, vec.New(1, 0, 0), vec.New(0, 2, 0))
	s.SetAcc(0, vec.New(0, 0, 4))

	KickHalf(rt, par.ParUnseq, s, 0.5) // v += a·0.25 → (0,2,1)
	if s.Vel(0) != vec.New(0, 2, 1) {
		t.Errorf("after half kick: %v", s.Vel(0))
	}
	Drift(rt, par.ParUnseq, s, 0.5) // x += v·0.5 → (1,1,0.5)
	if s.Pos(0) != vec.New(1, 1, 0.5) {
		t.Errorf("after drift: %v", s.Pos(0))
	}
}

func TestReverseVelocities(t *testing.T) {
	s := body.NewSystem(2)
	s.SetVel(0, vec.New(1, -2, 3))
	s.SetVel(1, vec.New(-4, 5, -6))
	ReverseVelocities(rt, par.ParUnseq, s)
	if s.Vel(0) != vec.New(-1, 2, -3) || s.Vel(1) != vec.New(4, -5, 6) {
		t.Errorf("reversed: %v %v", s.Vel(0), s.Vel(1))
	}
}

func TestCircularOrbitStaysCircular(t *testing.T) {
	s, p := twoBodyCircular()
	allpairs.AllPairs(rt, par.ParUnseq, s, p)

	// Orbit period for the relative orbit: T = 2π·r_rel/v_rel = 2π·2/1.
	dt := 0.005
	steps := int(4 * math.Pi / dt) // one full period
	for k := 0; k < steps; k++ {
		verletStep(s, p, dt)
	}
	// Radii must remain ~1 and the bodies must return near their start.
	for i := 0; i < 2; i++ {
		r := s.Pos(i).Norm()
		if math.Abs(r-1) > 1e-3 {
			t.Errorf("body %d radius %v after one period", i, r)
		}
	}
	if d := s.Pos(0).Dist(vec.New(-1, 0, 0)); d > 5e-3 {
		t.Errorf("body 0 returned %v from start", d)
	}
}

func TestVerletEnergyBounded(t *testing.T) {
	s, p := twoBodyCircular()
	allpairs.AllPairs(rt, par.ParUnseq, s, p)
	e0 := totalEnergy(s, p)

	dt := 0.01
	worst := 0.0
	for k := 0; k < 5000; k++ {
		verletStep(s, p, dt)
		if k%100 == 0 {
			drift := math.Abs(totalEnergy(s, p)-e0) / math.Abs(e0)
			if drift > worst {
				worst = drift
			}
		}
	}
	if worst > 1e-3 {
		t.Errorf("Verlet energy drift %v over 5000 steps", worst)
	}
}

func TestTimeReversibility(t *testing.T) {
	// Integrate a small chaotic-ish system forward, reverse velocities,
	// integrate the same number of steps: Verlet must come back to the
	// start to near machine precision.
	p := grav.Params{G: 1, Eps: 0.05, Theta: 0}
	s := body.NewSystem(4)
	s.Set(0, 1.0, vec.New(-1, 0, 0), vec.New(0, -0.3, 0))
	s.Set(1, 1.5, vec.New(1, 0, 0), vec.New(0, 0.3, 0))
	s.Set(2, 0.5, vec.New(0, 2, 0), vec.New(0.4, 0, 0.1))
	s.Set(3, 0.8, vec.New(0, -2, 1), vec.New(-0.4, 0, -0.1))
	start := s.Clone()

	allpairs.AllPairs(rt, par.ParUnseq, s, p)
	const steps = 500
	dt := 0.01
	for k := 0; k < steps; k++ {
		verletStep(s, p, dt)
	}
	ReverseVelocities(rt, par.ParUnseq, s)
	allpairs.AllPairs(rt, par.ParUnseq, s, p)
	for k := 0; k < steps; k++ {
		verletStep(s, p, dt)
	}

	for i := 0; i < s.N(); i++ {
		if d := s.Pos(i).Dist(start.Pos(i)); d > 1e-9 {
			t.Errorf("body %d returned %g from start", i, d)
		}
	}
}

func TestMomentumConservedByIntegration(t *testing.T) {
	p := grav.Params{G: 1, Eps: 0.01, Theta: 0}
	s := body.NewSystem(3)
	s.Set(0, 1, vec.New(0, 0, 0), vec.New(0.1, 0, 0))
	s.Set(1, 2, vec.New(1, 0.5, 0), vec.New(-0.05, 0.1, 0))
	s.Set(2, 3, vec.New(-1, 1, 0.5), vec.New(0, -0.1, 0.05))
	p0 := s.Momentum()
	allpairs.AllPairs(rt, par.ParUnseq, s, p)
	for k := 0; k < 1000; k++ {
		verletStep(s, p, 0.01)
	}
	if d := s.Momentum().Sub(p0).Norm(); d > 1e-10 {
		t.Errorf("momentum drift %g", d)
	}
}

// Verlet is second-order: halving dt must reduce the fixed-horizon position
// error by ~4x. The horizon T is an exact multiple of every dt used so the
// endpoint times coincide; the reference trajectory uses a 16x finer step.
func TestVerletSecondOrderConvergence(t *testing.T) {
	const T = 8.0
	posAt := func(dt float64) vec.V3 {
		s, p := twoBodyCircular()
		allpairs.AllPairs(rt, par.ParUnseq, s, p)
		steps := int(math.Round(T / dt))
		for k := 0; k < steps; k++ {
			verletStep(s, p, dt)
		}
		return s.Pos(0)
	}
	ref := posAt(0.00125)
	e1 := posAt(0.02).Dist(ref)
	e2 := posAt(0.01).Dist(ref)
	ratio := e1 / e2
	if ratio < 3 || ratio > 5.5 {
		t.Errorf("halving dt changed error by %vx, want ~4x (e1=%g e2=%g)", ratio, e1, e2)
	}
}
