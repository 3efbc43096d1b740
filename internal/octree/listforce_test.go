package octree

import (
	"testing"

	"nbody/internal/allpairs"
	"nbody/internal/body"
	"nbody/internal/grav"
	"nbody/internal/par"
)

// The tests below cover AccelerationsList, the group traversal: "Grouped"
// names the shared walk and its conservative opening criterion. Those on
// systems of at most allpairs.DirectMaxN bodies call the walk,
// accelerationsList, directly: AccelerationsList sums such systems
// pairwise.

func TestGroupedExactWhenThetaZero(t *testing.T) {
	r := par.NewRuntime(0, par.Dynamic)
	for _, n := range []int{2, 63, 500} {
		for _, groupSize := range []int{1, 8, 100} {
			s := randomSystem(n, uint64(n)+301)
			ref := s.Clone()
			p := grav.Params{G: 1, Eps: 1e-3, Theta: 0}
			allpairs.AllPairs(r, par.ParUnseq, ref, p)

			tree := buildTree(t, Config{}, s, r)
			tree.ComputeMoments(r, s)
			tree.accelerationsList(r, par.ParUnseq, s, p, groupSize, nil)
			for i := 0; i < n; i++ {
				if s.Acc(i).Sub(ref.Acc(i)).Norm() > 1e-10*(1+ref.Acc(i).Norm()) {
					t.Fatalf("n=%d group=%d body %d: %v vs %v", n, groupSize, i, s.Acc(i), ref.Acc(i))
				}
			}
		}
	}
}

// The flat path (key-sorted tree with bucket leaves, conservative group
// criterion) must never be less accurate than the paper's path (concurrent
// tree, per-body traversal) at equal θ.
func TestGroupedConservativeAccuracy(t *testing.T) {
	r := par.NewRuntime(0, par.Dynamic)
	n := 3000
	p := grav.Params{G: 1, Eps: 1e-3, Theta: 0.7}

	base := randomSystem(n, 307)
	ref := base.Clone()
	allpairs.AllPairs(r, par.ParUnseq, ref, p)

	meanErr := func(cfg Config, run func(tree *Tree, s *parBody)) float64 {
		s := base.Clone()
		tree := buildTree(t, cfg, s, r)
		tree.ComputeMoments(r, s)
		run(tree, s)
		// Compare per body by ID (the sorted build permutes).
		refAcc := make([][3]float64, n)
		for i := 0; i < n; i++ {
			refAcc[ref.ID[i]] = [3]float64{ref.AccX[i], ref.AccY[i], ref.AccZ[i]}
		}
		var sum float64
		for i := 0; i < n; i++ {
			want := refAcc[s.ID[i]]
			dx := s.AccX[i] - want[0]
			dy := s.AccY[i] - want[1]
			dz := s.AccZ[i] - want[2]
			mag := want[0]*want[0] + want[1]*want[1] + want[2]*want[2]
			sum += (dx*dx + dy*dy + dz*dz) / (mag + 1e-12)
		}
		return sum / float64(n)
	}

	perBody := meanErr(Config{}, func(tree *Tree, s *parBody) {
		tree.Accelerations(r, par.ParUnseq, s, p, nil)
	})
	list := meanErr(Config{KeySorted: true}, func(tree *Tree, s *parBody) {
		tree.AccelerationsList(r, par.ParUnseq, s, p, 32)
	})
	if list > perBody*1.01 {
		t.Errorf("list error %g exceeds per-body error %g — criterion not conservative", list, perBody)
	}
}

func TestGroupedWithChains(t *testing.T) {
	// Coincident bodies (leaves chained at MaxDepth) through the list path.
	r := par.NewRuntime(4, par.Dynamic)
	s := randomSystem(50, 311)
	for i := 0; i < 10; i++ {
		s.SetPos(i, s.Pos(20)) // force chains
	}
	ref := s.Clone()
	p := grav.Params{G: 1, Eps: 1e-2, Theta: 0}
	allpairs.AllPairs(r, par.ParUnseq, ref, p)
	tree := buildTree(t, Config{MaxDepth: 6}, s, r)
	tree.ComputeMoments(r, s)
	tree.accelerationsList(r, par.ParUnseq, s, p, 16, nil)
	for i := 0; i < s.N(); i++ {
		if s.Acc(i).Sub(ref.Acc(i)).Norm() > 1e-9*(1+ref.Acc(i).Norm()) {
			t.Fatalf("body %d: %v vs %v", i, s.Acc(i), ref.Acc(i))
		}
	}
}

func TestGroupedEmptyAndDefaults(t *testing.T) {
	r := par.NewRuntime(2, par.Dynamic)
	s := randomSystem(0, 313)
	tree := New(Config{})
	if err := tree.Build(r, s, tree.RootBox()); err != nil {
		// empty build with empty box is fine either way
		t.Skip("empty build unsupported shape")
	}
	tree.ComputeMoments(r, s)
	tree.accelerationsList(r, par.ParUnseq, s, grav.DefaultParams(), 0, nil)

	// A non-positive group size selects the default of 32.
	def := randomSystem(200, 317)
	tree = buildTree(t, Config{}, def, r)
	tree.ComputeMoments(r, def)
	want := def.Clone()
	tree.accelerationsList(r, par.ParUnseq, want, grav.DefaultParams(), 32, nil)
	tree.accelerationsList(r, par.ParUnseq, def, grav.DefaultParams(), 0, nil)
	for i := 0; i < def.N(); i++ {
		if def.Acc(i) != want.Acc(i) {
			t.Fatalf("body %d: group size 0 gave %v, 32 gave %v", i, def.Acc(i), want.Acc(i))
		}
	}
}

// Up to allpairs.DirectMaxN bodies AccelerationsList is the pairwise sum,
// bit for bit; one body more and it is the walk again.
func TestAccelerationsListDirectUpToCutoff(t *testing.T) {
	r := par.NewRuntime(0, par.Dynamic)
	p := grav.Params{G: 1, Eps: 1e-3, Theta: 0.8}
	for _, n := range []int{allpairs.DirectMaxN, allpairs.DirectMaxN + 1} {
		s := randomSystem(n, 319)
		tree := buildTree(t, Config{KeySorted: true}, s, r)
		tree.ComputeMoments(r, s)
		direct, walk := s.Clone(), s.Clone()
		allpairs.AllPairs(r, par.ParUnseq, direct, p)
		tree.accelerationsList(r, par.ParUnseq, walk, p, 0, nil)
		tree.AccelerationsList(r, par.ParUnseq, s, p, 0)
		want := walk
		if n <= allpairs.DirectMaxN {
			want = direct
		}
		differ := 0
		for i := 0; i < n; i++ {
			if s.Acc(i) != want.Acc(i) {
				t.Fatalf("n=%d body %d: %v, want %v", n, i, s.Acc(i), want.Acc(i))
			}
			if s.Acc(i) != direct.Acc(i) {
				differ++
			}
		}
		if n > allpairs.DirectMaxN && differ == 0 {
			t.Errorf("n=%d: the walk reproduced the pairwise sum exactly; θ %v approximates nothing", n, p.Theta)
		}
	}
}

// parBody aliases the body system type to keep helper signatures short.
type parBody = body.System
