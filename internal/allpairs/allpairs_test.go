package allpairs

import (
	"math"
	"testing"

	"nbody/internal/body"
	"nbody/internal/bounds"
	"nbody/internal/grav"
	"nbody/internal/par"
	"nbody/internal/rng"
	"nbody/internal/sfc"
	"nbody/internal/vec"
)

func randomSystem(n int, seed uint64) *body.System {
	src := rng.New(seed)
	s := body.NewSystem(n)
	for i := 0; i < n; i++ {
		s.Set(i, src.Range(0.1, 2),
			vec.New(src.Range(-1, 1), src.Range(-1, 1), src.Range(-1, 1)),
			vec.Zero)
	}
	return s
}

// referenceAccel computes accelerations with a straightforward sequential
// double loop, the ground truth for both parallel implementations.
func referenceAccel(s *body.System, p grav.Params) [][3]float64 {
	n := s.N()
	eps2 := p.Eps2()
	out := make([][3]float64, n)
	for i := 0; i < n; i++ {
		var ax, ay, az float64
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			dx := s.PosX[j] - s.PosX[i]
			dy := s.PosY[j] - s.PosY[i]
			dz := s.PosZ[j] - s.PosZ[i]
			r2 := dx*dx + dy*dy + dz*dz + eps2
			f := s.Mass[j] / (r2 * math.Sqrt(r2))
			ax += f * dx
			ay += f * dy
			az += f * dz
		}
		out[i] = [3]float64{p.G * ax, p.G * ay, p.G * az}
	}
	return out
}

func maxAccelError(s *body.System, want [][3]float64) float64 {
	worst := 0.0
	for i := range want {
		scale := 1 + math.Abs(want[i][0]) + math.Abs(want[i][1]) + math.Abs(want[i][2])
		d := math.Abs(s.AccX[i]-want[i][0]) + math.Abs(s.AccY[i]-want[i][1]) + math.Abs(s.AccZ[i]-want[i][2])
		if d/scale > worst {
			worst = d / scale
		}
	}
	return worst
}

func TestAllPairsMatchesReference(t *testing.T) {
	p := grav.Params{G: 1.5, Eps: 1e-3}
	for _, n := range []int{0, 1, 2, 3, 63, 64, 65, 500} {
		s := randomSystem(n, uint64(n)+1)
		want := referenceAccel(s, p)
		for _, r := range []*par.Runtime{par.NewRuntime(1, par.Dynamic), par.NewRuntime(4, par.Static), par.NewRuntime(0, par.Dynamic)} {
			AllPairs(r, par.ParUnseq, s, p)
			if err := maxAccelError(s, want); err > 1e-12 {
				t.Errorf("n=%d %v: AllPairs error %g", n, r, err)
			}
		}
	}
}

func TestAllPairsColMatchesReference(t *testing.T) {
	p := grav.Params{G: 2, Eps: 1e-3}
	for _, n := range []int{0, 1, 2, 3, 63, 64, 65, 129, 500} {
		s := randomSystem(n, uint64(n)+100)
		want := referenceAccel(s, p)
		for _, r := range []*par.Runtime{par.NewRuntime(1, par.Dynamic), par.NewRuntime(4, par.Dynamic), par.NewRuntime(0, par.Guided)} {
			AllPairsCol(r, par.Par, s, p)
			// Atomic accumulation reorders additions, so the
			// tolerance is looser than AllPairs'.
			if err := maxAccelError(s, want); err > 1e-9 {
				t.Errorf("n=%d %v: AllPairsCol error %g", n, r, err)
			}
		}
	}
}

func TestAllPairsVariantsAgree(t *testing.T) {
	p := grav.DefaultParams()
	s1 := randomSystem(300, 7)
	s2 := s1.Clone()
	r := par.NewRuntime(0, par.Dynamic)
	AllPairs(r, par.ParUnseq, s1, p)
	AllPairsCol(r, par.Par, s2, p)
	for i := 0; i < s1.N(); i++ {
		d := s1.Acc(i).Sub(s2.Acc(i)).Norm()
		scale := 1 + s1.Acc(i).Norm()
		if d/scale > 1e-9 {
			t.Fatalf("body %d: variants disagree by %g", i, d/scale)
		}
	}
}

func TestZeroSofteningSelfInteraction(t *testing.T) {
	// With ε = 0 the self-pair has r² = 0 and must contribute nothing
	// rather than NaN.
	p := grav.Params{G: 1, Eps: 0}
	s := randomSystem(10, 3)
	AllPairs(par.NewRuntime(2, par.Dynamic), par.ParUnseq, s, p)
	for i := 0; i < s.N(); i++ {
		if !s.Acc(i).IsFinite() {
			t.Fatalf("body %d acceleration %v not finite", i, s.Acc(i))
		}
	}
}

func TestCoincidentBodies(t *testing.T) {
	// Two bodies at the same position with ε = 0: the mutual force is
	// undefined; the kernel's convention is zero contribution.
	s := body.NewSystem(2)
	s.Set(0, 1, vec.New(1, 1, 1), vec.Zero)
	s.Set(1, 1, vec.New(1, 1, 1), vec.Zero)
	p := grav.Params{G: 1, Eps: 0}
	AllPairs(par.NewRuntime(2, par.Dynamic), par.ParUnseq, s, p)
	if s.Acc(0) != vec.Zero || s.Acc(1) != vec.Zero {
		t.Errorf("coincident bodies produced %v, %v", s.Acc(0), s.Acc(1))
	}
	AllPairsCol(par.NewRuntime(2, par.Dynamic), par.Par, s, p)
	if s.Acc(0) != vec.Zero || s.Acc(1) != vec.Zero {
		t.Errorf("coincident bodies (Col) produced %v, %v", s.Acc(0), s.Acc(1))
	}
}

func TestTwoBodyAnalytic(t *testing.T) {
	// Two unit masses at distance 2 with no softening: |a| = G·m/r² = ¼.
	s := body.NewSystem(2)
	s.Set(0, 1, vec.New(-1, 0, 0), vec.Zero)
	s.Set(1, 1, vec.New(1, 0, 0), vec.Zero)
	p := grav.Params{G: 1, Eps: 0}
	AllPairs(par.NewRuntime(1, par.Dynamic), par.Seq, s, p)
	if math.Abs(s.AccX[0]-0.25) > 1e-15 || math.Abs(s.AccX[1]+0.25) > 1e-15 {
		t.Errorf("two-body acc = %v, %v", s.Acc(0), s.Acc(1))
	}
	if s.AccY[0] != 0 || s.AccZ[0] != 0 {
		t.Errorf("transverse acceleration: %v", s.Acc(0))
	}
}

func TestMomentumConservationOfForces(t *testing.T) {
	// Newton's third law: Σ mᵢaᵢ = 0 for both variants.
	p := grav.Params{G: 1, Eps: 1e-4}
	s := randomSystem(400, 11)
	r := par.NewRuntime(0, par.Dynamic)
	for name, run := range map[string]func(){
		"AllPairs":    func() { AllPairs(r, par.ParUnseq, s, p) },
		"AllPairsCol": func() { AllPairsCol(r, par.Par, s, p) },
	} {
		run()
		var fx, fy, fz float64
		for i := 0; i < s.N(); i++ {
			fx += s.Mass[i] * s.AccX[i]
			fy += s.Mass[i] * s.AccY[i]
			fz += s.Mass[i] * s.AccZ[i]
		}
		if math.Abs(fx)+math.Abs(fy)+math.Abs(fz) > 1e-9 {
			t.Errorf("%s: net force (%g, %g, %g) not zero", name, fx, fy, fz)
		}
	}
}

func TestPotentialEnergy(t *testing.T) {
	// Two unit masses at distance 2, no softening: U = -G/2.
	s := body.NewSystem(2)
	s.Set(0, 1, vec.New(-1, 0, 0), vec.Zero)
	s.Set(1, 1, vec.New(1, 0, 0), vec.Zero)
	p := grav.Params{G: 3, Eps: 0}
	got := PotentialEnergy(par.NewRuntime(2, par.Dynamic), par.Par, s, p)
	if math.Abs(got-(-1.5)) > 1e-15 {
		t.Errorf("PotentialEnergy = %v, want -1.5", got)
	}
}

func TestPotentialEnergyParallelMatchesSeq(t *testing.T) {
	s := randomSystem(500, 13)
	p := grav.DefaultParams()
	r := par.NewRuntime(0, par.Dynamic)
	seq := PotentialEnergy(r, par.Seq, s, p)
	parv := PotentialEnergy(r, par.Par, s, p)
	if math.Abs(seq-parv) > 1e-9*math.Abs(seq) {
		t.Errorf("seq %v vs par %v", seq, parv)
	}
}

// The pairwise energy of clustered bodies — four clusters of 1e-4 spread,
// unsoftened, with two coincident bodies, where a plain running sum over a
// chunk's pairs rounds differently in every body order — agrees with
// itself to 1e-14 relative in insertion and in Hilbert order, on 1, 2 and
// 5 workers.
func TestPotentialEnergyIndependentOfOrder(t *testing.T) {
	p := grav.Params{G: 2, Eps: 0}
	src := rng.New(4701)
	s := body.NewSystem(3000)
	for i := 0; i < s.N(); i++ {
		c := float64(src.Intn(4))*5 - 10
		s.Set(i, 1, vec.New(c+src.Norm()*1e-4, c+src.Norm()*1e-4, c+src.Norm()*1e-4), vec.Zero)
	}
	s.SetPos(1, s.Pos(0))
	hilbert := s.Clone()
	box := bounds.OfPositions(par.NewRuntime(1, par.Dynamic), par.Seq, s.PosX, s.PosY, s.PosZ)
	sfc.SortBodies(par.NewRuntime(1, par.Dynamic), par.Seq, hilbert, box.Cube(), make([]uint64, s.N()), make([]int32, s.N()))

	ref := PotentialEnergy(par.NewRuntime(1, par.Dynamic), par.Seq, s, p)
	for _, order := range []struct {
		name string
		sys  *body.System
	}{{"insertion", s}, {"hilbert", hilbert}} {
		for _, workers := range []int{1, 2, 5} {
			u := PotentialEnergy(par.NewRuntime(workers, par.Dynamic), par.Par, order.sys, p)
			if rel := math.Abs(u-ref) / math.Abs(ref); rel > 1e-14 {
				t.Errorf("%s order, %d workers: %v, insertion order on one worker %v: relative %.2g", order.name, workers, u, ref, rel)
			}
		}
	}
}

// The potentials AllPairsPhi writes beside the accelerations sum to the
// pairwise energy, softened or not, with two coincident bodies whose pair
// is −G·m²/ε softened and nothing unsoftened; the accelerations are the
// bits AllPairs writes.
func TestAllPairsPhiMatchesPotentialEnergy(t *testing.T) {
	r := par.NewRuntime(3, par.Dynamic)
	for _, eps := range []float64{1e-2, 0} {
		p := grav.Params{G: 2, Eps: eps}
		s := randomSystem(700, 17)
		s.SetPos(1, s.Pos(0))
		phi := make([]float64, s.N())
		AllPairsPhi(r, par.ParUnseq, s, p, phi)
		want := s.Clone()
		AllPairs(r, par.ParUnseq, want, p)
		var u float64
		for i := range phi {
			u += 0.5 * s.Mass[i] * phi[i]
			if s.Acc(i) != want.Acc(i) {
				t.Fatalf("eps=%v body %d: acceleration %v, AllPairs %v", eps, i, s.Acc(i), want.Acc(i))
			}
		}
		if exact := PotentialEnergy(r, par.Par, s, p); math.Abs(u-exact) > 1e-12*math.Abs(exact) {
			t.Errorf("eps=%v: ½Σmφ = %v, PotentialEnergy %v", eps, u, exact)
		}
	}
}

func TestGravParamsValidate(t *testing.T) {
	if err := grav.DefaultParams().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	bad := []grav.Params{
		{G: math.NaN(), Eps: 0, Theta: 0.5},
		{G: 1, Eps: -1, Theta: 0.5},
		{G: 1, Eps: math.Inf(1), Theta: 0.5},
		{G: 1, Eps: 0, Theta: -0.1},
		{G: 1, Eps: 0, Theta: math.NaN()},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
}

func BenchmarkAllPairs4096(b *testing.B) {
	s := randomSystem(4096, 1)
	p := grav.DefaultParams()
	r := par.NewRuntime(0, par.Dynamic)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AllPairs(r, par.ParUnseq, s, p)
	}
}

func BenchmarkAllPairsCol4096(b *testing.B) {
	s := randomSystem(4096, 1)
	p := grav.DefaultParams()
	r := par.NewRuntime(0, par.Dynamic)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AllPairsCol(r, par.Par, s, p)
	}
}
