package bvh

import (
	"testing"

	"nbody/internal/allpairs"
	"nbody/internal/body"
	"nbody/internal/grav"
	"nbody/internal/par"
	"nbody/internal/rng"
)

// The tests below cover AccelerationsList, the group traversal ("Grouped"
// names the shared walk and its conservative opening criterion), under
// both Criterion values, whose group-level tests differ.

var criteria = []Criterion{CenterDistance, BoxDistance}

// listError runs AccelerationsList on s and returns its mean squared
// relative error against a direct sum over the same (already permuted)
// body order, next to that of the per-body walk.
func listError(tree *Tree, r *par.Runtime, s *body.System, p grav.Params, group int) (list, perBody float64) {
	ref, walk := s.Clone(), s.Clone()
	allpairs.AllPairs(r, par.ParUnseq, ref, p)
	tree.Accelerations(r, par.ParUnseq, walk, p)
	tree.AccelerationsList(r, par.ParUnseq, s, p, group)
	for i := 0; i < s.N(); i++ {
		mag := ref.Acc(i).Norm2() + 1e-12
		list += s.Acc(i).Sub(ref.Acc(i)).Norm2() / mag
		perBody += walk.Acc(i).Sub(ref.Acc(i)).Norm2() / mag
	}
	return list / float64(s.N()), perBody / float64(s.N())
}

// staleOrder refits tree three times over moved bodies without re-sorting:
// leaves and groups lose their compactness, while boxes, moments and the
// kernel's group boxes still come from current positions.
func staleOrder(tree *Tree, r *par.Runtime, s *body.System) {
	src := rng.New(421)
	for refit := 0; refit < 3; refit++ {
		for i := 0; i < s.N(); i++ {
			s.PosX[i] += src.Norm()
			s.PosY[i] += src.Norm()
			s.PosZ[i] += src.Norm()
		}
		tree.BuildNoSort(r, par.ParUnseq, s)
	}
}

func TestGroupedExactWhenThetaZero(t *testing.T) {
	r := par.NewRuntime(0, par.Dynamic)
	p := grav.Params{G: 1, Eps: 1e-2, Theta: 0}
	for _, tc := range []struct {
		name              string
		n                 int
		coincident, stale bool
	}{
		{name: "pair", n: 2},
		{name: "ragged last group", n: 63},
		{name: "random", n: 500},
		// Zero-extent boxes inside the group's own box: the BVH's
		// counterpart of the octree's MaxDepth chains.
		{name: "coincident bodies", n: 50, coincident: true},
		{name: "stale order", n: 500, stale: true},
	} {
		for _, crit := range criteria {
			for _, leafSize := range []int{1, 4} {
				for _, group := range []int{1, 8, 100} {
					s := randomSystem(tc.n, uint64(tc.n)+401)
					for i := 0; tc.coincident && i < 10; i++ {
						s.SetPos(i, s.Pos(20))
					}
					tree := buildTree(t, Config{LeafSize: leafSize, Criterion: crit}, s, r)
					if tc.stale {
						staleOrder(tree, r, s)
					}
					if list, _ := listError(tree, r, s, p, group); list > 1e-20 {
						t.Errorf("%s, %v leaf=%d group=%d: mean squared error %g at θ=0",
							tc.name, crit, leafSize, group, list)
					}
				}
			}
		}
	}
}

// The conservative group criterion must never be less accurate than the
// per-body traversal at equal θ, in fresh and in stale Hilbert order.
func TestGroupedConservativeAccuracy(t *testing.T) {
	r := par.NewRuntime(0, par.Dynamic)
	p := grav.Params{G: 1, Eps: 1e-3, Theta: 0.7}
	for _, crit := range criteria {
		for _, stale := range []bool{false, true} {
			s := randomSystem(3000, 407)
			tree := buildTree(t, Config{Criterion: crit}, s, r)
			if stale {
				staleOrder(tree, r, s)
			}
			if list, perBody := listError(tree, r, s, p, 32); list > perBody*1.01 {
				t.Errorf("%v stale=%v: list error %g exceeds per-body error %g — criterion not conservative",
					crit, stale, list, perBody)
			}
		}
	}
}

func TestGroupedEmptyAndDefaults(t *testing.T) {
	r := par.NewRuntime(2, par.Dynamic)
	empty := randomSystem(0, 413)
	buildTree(t, Config{}, empty, r).AccelerationsList(r, par.ParUnseq, empty, grav.DefaultParams(), 0)

	// A non-positive group size selects the default of 32.
	s := randomSystem(200, 417)
	tree := buildTree(t, Config{}, s, r)
	want := s.Clone()
	tree.AccelerationsList(r, par.ParUnseq, want, grav.DefaultParams(), 32)
	tree.AccelerationsList(r, par.ParUnseq, s, grav.DefaultParams(), 0)
	for i := 0; i < s.N(); i++ {
		if s.Acc(i) != want.Acc(i) {
			t.Fatalf("body %d: group size 0 gave %v, 32 gave %v", i, s.Acc(i), want.Acc(i))
		}
	}
}
