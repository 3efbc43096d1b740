package bvh

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"nbody/internal/allpairs"
	"nbody/internal/body"
	"nbody/internal/bounds"
	"nbody/internal/grav"
	"nbody/internal/par"
	"nbody/internal/rng"
	"nbody/internal/vec"
	"nbody/internal/walk"
)

func randomSystem(n int, seed uint64) *body.System {
	src := rng.New(seed)
	s := body.NewSystem(n)
	for i := 0; i < n; i++ {
		s.Set(i, src.Range(0.5, 1.5),
			vec.New(src.Range(-10, 10), src.Range(-10, 10), src.Range(-10, 10)),
			vec.New(src.Norm(), src.Norm(), src.Norm()))
	}
	return s
}

func buildTree(t testing.TB, cfg Config, s *body.System, r *par.Runtime) *Tree {
	t.Helper()
	tree := New(cfg)
	box := bounds.OfPositions(r, par.ParUnseq, s.PosX, s.PosY, s.PosZ)
	tree.Build(r, par.ParUnseq, s, box)
	return tree
}

// checkStructure verifies the BVH structural invariants: counts sum up the
// tree, every node's box contains its bodies, children boxes within parent,
// root totals match the system.
func checkStructure(t *testing.T, tree *Tree, s *body.System) {
	t.Helper()
	n := s.N()
	numLeaves := tree.NumLeaves()

	totalCount := 0
	for j := 0; j < numLeaves; j++ {
		node := numLeaves + j
		lo, hi := tree.LeafRange(j)
		if got := tree.NodeCount(node); got != hi-lo {
			t.Fatalf("leaf %d count %d, want %d", j, got, hi-lo)
		}
		totalCount += hi - lo
		box := tree.NodeBox(node)
		for b := lo; b < hi; b++ {
			if !box.Contains(s.Pos(b)) {
				t.Fatalf("leaf %d box %v missing body %d at %v", j, box, b, s.Pos(b))
			}
		}
	}
	if totalCount != n {
		t.Fatalf("leaves cover %d bodies, want %d", totalCount, n)
	}

	for node := 1; node < numLeaves; node++ {
		l, r := 2*node, 2*node+1
		if got := tree.NodeCount(node); got != tree.NodeCount(l)+tree.NodeCount(r) {
			t.Fatalf("node %d count %d != %d + %d", node, got, tree.NodeCount(l), tree.NodeCount(r))
		}
		if tree.NodeCount(node) == 0 {
			continue
		}
		box := tree.NodeBox(node)
		for _, c := range []int{l, r} {
			if tree.NodeCount(c) > 0 && !box.ContainsBox(tree.NodeBox(c)) {
				t.Fatalf("node %d box %v does not contain child %d box %v", node, box, c, tree.NodeBox(c))
			}
		}
	}

	if n > 0 {
		wantMass := s.TotalMass()
		if math.Abs(tree.TotalMass()-wantMass) > 1e-9*(1+wantMass) {
			t.Fatalf("root mass %v, want %v", tree.TotalMass(), wantMass)
		}
		com := s.CenterOfMass()
		gx, gy, gz := tree.CenterOfMass()
		if math.Abs(gx-com.X)+math.Abs(gy-com.Y)+math.Abs(gz-com.Z) > 1e-9 {
			t.Fatalf("root com (%v,%v,%v), want %v", gx, gy, gz, com)
		}
	}
}

func TestBuildShapes(t *testing.T) {
	r := par.NewRuntime(0, par.Dynamic)
	for _, n := range []int{1, 2, 3, 4, 5, 31, 32, 33, 1000} {
		for _, leafSize := range []int{1, 4, 16} {
			s := randomSystem(n, uint64(n*100+leafSize))
			tree := buildTree(t, Config{LeafSize: leafSize}, s, r)
			wantLeaves := (n + leafSize - 1) / leafSize
			if tree.NumLeaves() < wantLeaves {
				t.Errorf("n=%d leafSize=%d: %d leaves < %d", n, leafSize, tree.NumLeaves(), wantLeaves)
			}
			if tree.NumLeaves()&(tree.NumLeaves()-1) != 0 {
				t.Errorf("n=%d: numLeaves %d not a power of two", n, tree.NumLeaves())
			}
			if 1<<(tree.Levels()-1) != tree.NumLeaves() {
				t.Errorf("n=%d: levels %d inconsistent with %d leaves", n, tree.Levels(), tree.NumLeaves())
			}
			checkStructure(t, tree, s)
		}
	}
}

func TestHilbertOrderingCompactsLeaves(t *testing.T) {
	// After the Hilbert sort, adjacent bodies must be spatially close: the
	// mean leaf-pair box extent must be far below the domain extent.
	n := 4096
	s := randomSystem(n, 5)
	r := par.NewRuntime(0, par.Dynamic)
	tree := buildTree(t, Config{LeafSize: 4}, s, r)

	var sum float64
	leaves := 0
	for j := 0; j < tree.NumLeaves(); j++ {
		node := tree.NumLeaves() + j
		if tree.NodeCount(node) < 2 {
			continue
		}
		sum += tree.NodeBox(node).Diagonal()
		leaves++
	}
	meanDiag := sum / float64(leaves)
	domain := 20 * math.Sqrt(3)
	if meanDiag > domain/8 {
		t.Errorf("mean leaf diagonal %v too large vs domain %v — sort not effective", meanDiag, domain)
	}
}

func TestSortPermutesBodiesConsistently(t *testing.T) {
	// Each body carries its velocity as a fingerprint; after Build the
	// (mass, pos, vel) triples must be the same multiset.
	n := 1000
	s := randomSystem(n, 7)
	type fp struct{ m, px, vy float64 }
	before := map[fp]int{}
	for i := 0; i < n; i++ {
		before[fp{s.Mass[i], s.PosX[i], s.VelY[i]}]++
	}
	r := par.NewRuntime(0, par.Dynamic)
	buildTree(t, Config{}, s, r)
	after := map[fp]int{}
	for i := 0; i < n; i++ {
		after[fp{s.Mass[i], s.PosX[i], s.VelY[i]}]++
	}
	if len(before) != len(after) {
		t.Fatal("permutation changed the body multiset")
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatalf("body fingerprint %v count %d -> %d", k, v, after[k])
		}
	}
}

func TestForceExactWhenThetaZero(t *testing.T) {
	for _, n := range []int{2, 10, 100, 1500} {
		for _, leafSize := range []int{1, 4} {
			s := randomSystem(n, uint64(n)+13)
			r := par.NewRuntime(0, par.Dynamic)
			p := grav.Params{G: 1, Eps: 1e-3, Theta: 0}

			tree := buildTree(t, Config{LeafSize: leafSize}, s, r)
			// Reference computed after Build so both see the permuted order.
			ref := s.Clone()
			allpairs.AllPairs(r, par.ParUnseq, ref, p)
			tree.Accelerations(r, par.ParUnseq, s, p, nil)

			for i := 0; i < n; i++ {
				d := s.Acc(i).Sub(ref.Acc(i)).Norm()
				if d > 1e-10*(1+ref.Acc(i).Norm()) {
					t.Fatalf("n=%d leafSize=%d body %d: %v vs %v", n, leafSize, i, s.Acc(i), ref.Acc(i))
				}
			}
		}
	}
}

func TestForceApproximationQuality(t *testing.T) {
	n := 2000
	s := randomSystem(n, 17)
	r := par.NewRuntime(0, par.Dynamic)
	p := grav.Params{G: 1, Eps: 1e-3, Theta: 0.5}

	tree := buildTree(t, Config{}, s, r)
	ref := s.Clone()
	allpairs.AllPairs(r, par.ParUnseq, ref, p)
	tree.Accelerations(r, par.ParUnseq, s, p, nil)

	// Bodies whose net force nearly cancels have huge *relative* errors
	// for any approximate method, so normalize by the field's mean
	// magnitude (the standard BH accuracy metric).
	var meanMag float64
	for i := 0; i < n; i++ {
		meanMag += ref.Acc(i).Norm()
	}
	meanMag /= float64(n)

	var sumRel float64
	for i := 0; i < n; i++ {
		rel := s.Acc(i).Sub(ref.Acc(i)).Norm() / (ref.Acc(i).Norm() + 0.1*meanMag)
		sumRel += rel
		if rel > 0.2 {
			t.Errorf("body %d: normalized error %v", i, rel)
		}
	}
	if mean := sumRel / float64(n); mean > 0.02 {
		t.Errorf("mean normalized force error %v", mean)
	}
}

func TestForceErrorDecreasesWithTheta(t *testing.T) {
	n := 1500
	s := randomSystem(n, 19)
	r := par.NewRuntime(0, par.Dynamic)
	tree := buildTree(t, Config{}, s, r)
	ref := s.Clone()

	meanErr := func(theta float64) float64 {
		p := grav.Params{G: 1, Eps: 1e-3, Theta: theta}
		allpairs.AllPairs(r, par.ParUnseq, ref, p)
		tree.Accelerations(r, par.ParUnseq, s, p, nil)
		var sum float64
		for i := 0; i < n; i++ {
			sum += s.Acc(i).Sub(ref.Acc(i)).Norm() / (ref.Acc(i).Norm() + 1e-12)
		}
		return sum / float64(n)
	}
	e8, e4, e2 := meanErr(0.8), meanErr(0.4), meanErr(0.2)
	if !(e2 <= e4 && e4 <= e8) {
		t.Errorf("errors not monotone: θ=0.8→%g θ=0.4→%g θ=0.2→%g", e8, e4, e2)
	}
}

func TestBoxDistanceCriterionMoreAccurate(t *testing.T) {
	// For the same θ the conservative box-distance criterion must open at
	// least as many nodes, yielding equal or lower force error.
	n := 2000
	r := par.NewRuntime(0, par.Dynamic)
	p := grav.Params{G: 1, Eps: 1e-3, Theta: 0.8}

	meanErr := func(crit Criterion) float64 {
		s := randomSystem(n, 71)
		tree := buildTree(t, Config{Criterion: crit}, s, r)
		ref := s.Clone()
		allpairs.AllPairs(r, par.ParUnseq, ref, p)
		tree.Accelerations(r, par.ParUnseq, s, p, nil)
		var sum float64
		for i := 0; i < n; i++ {
			sum += s.Acc(i).Sub(ref.Acc(i)).Norm() / (ref.Acc(i).Norm() + 1e-12)
		}
		return sum / float64(n)
	}

	center := meanErr(CenterDistance)
	boxd := meanErr(BoxDistance)
	if boxd > center {
		t.Errorf("box-distance error %g exceeds center-distance error %g", boxd, center)
	}
}

func TestBoxDistanceCriterionExactAtThetaZero(t *testing.T) {
	n := 300
	r := par.NewRuntime(0, par.Dynamic)
	p := grav.Params{G: 1, Eps: 1e-3, Theta: 0}
	s := randomSystem(n, 73)
	tree := buildTree(t, Config{Criterion: BoxDistance}, s, r)
	ref := s.Clone()
	allpairs.AllPairs(r, par.ParUnseq, ref, p)
	tree.Accelerations(r, par.ParUnseq, s, p, nil)
	for i := 0; i < n; i++ {
		if s.Acc(i).Sub(ref.Acc(i)).Norm() > 1e-10*(1+ref.Acc(i).Norm()) {
			t.Fatalf("body %d force mismatch", i)
		}
	}
}

func TestCriterionString(t *testing.T) {
	if CenterDistance.String() != "center-distance" || BoxDistance.String() != "box-distance" {
		t.Error("criterion strings wrong")
	}
	if Criterion(7).String() == "" {
		t.Error("unknown criterion should print")
	}
}

func TestBuildNoSortStaysCorrect(t *testing.T) {
	// Moving bodies and rebuilding without re-sorting must still produce
	// exact boxes/moments (only compactness degrades).
	n := 1000
	s := randomSystem(n, 29)
	r := par.NewRuntime(0, par.Dynamic)
	tree := buildTree(t, Config{}, s, r)

	src := rng.New(31)
	for i := 0; i < n; i++ {
		s.PosX[i] += src.Norm()
		s.PosY[i] += src.Norm()
		s.PosZ[i] += src.Norm()
	}
	tree.BuildNoSort(r, par.ParUnseq, s)
	checkStructure(t, tree, s)

	p := grav.Params{G: 1, Eps: 1e-3, Theta: 0}
	ref := s.Clone()
	allpairs.AllPairs(r, par.ParUnseq, ref, p)
	tree.Accelerations(r, par.ParUnseq, s, p, nil)
	for i := 0; i < n; i++ {
		if s.Acc(i).Sub(ref.Acc(i)).Norm() > 1e-10*(1+ref.Acc(i).Norm()) {
			t.Fatalf("no-sort rebuild body %d force mismatch", i)
		}
	}
}

func TestTreeReuseAcrossBuilds(t *testing.T) {
	r := par.NewRuntime(0, par.Dynamic)
	tree := New(Config{})
	for step := 0; step < 4; step++ {
		// Vary N across rebuilds to exercise reallocation.
		s := randomSystem(500+step*700, uint64(step)+37)
		box := bounds.OfPositions(r, par.ParUnseq, s.PosX, s.PosY, s.PosZ)
		tree.Build(r, par.ParUnseq, s, box)
		checkStructure(t, tree, s)
	}
}

func TestMasslessBodies(t *testing.T) {
	s := randomSystem(100, 41)
	for i := 50; i < 100; i++ {
		s.Mass[i] = 0
	}
	r := par.NewRuntime(4, par.Dynamic)
	tree := buildTree(t, Config{}, s, r)
	tree.Accelerations(r, par.ParUnseq, s, grav.DefaultParams(), nil)
	for i := 0; i < s.N(); i++ {
		if !s.Acc(i).IsFinite() {
			t.Fatalf("body %d acceleration %v", i, s.Acc(i))
		}
	}
}

func TestCoincidentBodies(t *testing.T) {
	s := body.NewSystem(8)
	for i := 0; i < 8; i++ {
		s.Set(i, 1, vec.New(0.5, 0.5, 0.5), vec.Zero)
	}
	r := par.NewRuntime(4, par.Dynamic)
	tree := buildTree(t, Config{}, s, r)
	checkStructure(t, tree, s)
	tree.Accelerations(r, par.ParUnseq, s, grav.Params{G: 1, Eps: 0, Theta: 0.5}, nil)
	for i := 0; i < 8; i++ {
		if !s.Acc(i).IsFinite() {
			t.Fatalf("coincident bodies produced %v", s.Acc(i))
		}
	}
}

func TestSingleBody(t *testing.T) {
	s := body.NewSystem(1)
	s.Set(0, 3, vec.New(1, 2, 3), vec.Zero)
	r := par.NewRuntime(2, par.Dynamic)
	tree := buildTree(t, Config{}, s, r)
	if tree.NumLeaves() != 1 || tree.Levels() != 1 {
		t.Errorf("single body: leaves=%d levels=%d", tree.NumLeaves(), tree.Levels())
	}
	tree.Accelerations(r, par.ParUnseq, s, grav.DefaultParams(), nil)
	if s.Acc(0) != vec.Zero {
		t.Errorf("lone body acceleration %v", s.Acc(0))
	}
}

// checkPotentials holds the potentials both traversals of a built tree
// write beside the accelerations to the pairwise sum: the energy ½·Σ mᵢφᵢ
// within tol relative, or, when tol is 0, within the traversal's own
// relative L2 force error against the pairwise accelerations.
func checkPotentials(t *testing.T, at string, tree *Tree, r *par.Runtime, s *body.System, p grav.Params, tol float64) {
	t.Helper()
	ref := s.Clone()
	allpairs.AllPairs(r, par.Seq, ref, p)
	exactU := allpairs.PotentialEnergy(r, par.Par, s, p)
	phi := make([]float64, s.N())
	for _, tr := range []struct {
		name string
		run  func()
	}{
		{"walk", func() { tree.Accelerations(r, par.ParUnseq, s, p, phi) }},
		{"list", func() { tree.accelerationsList(r, par.ParUnseq, s, p, 0, phi) }},
	} {
		tr.run()
		var u, d2, a2 float64
		for i := 0; i < s.N(); i++ {
			u += 0.5 * s.Mass[i] * phi[i]
			d2 += s.Acc(i).Sub(ref.Acc(i)).Norm2()
			a2 += ref.Acc(i).Norm2()
		}
		bound := tol
		if bound == 0 {
			bound = math.Sqrt(d2 / a2)
		}
		if rel := math.Abs(u-exactU) / math.Abs(exactU); !(rel <= bound) {
			t.Errorf("%s %s: potential energy %v, pairwise %v: relative error %.3g, bound %.3g", at, tr.name, u, exactU, rel, bound)
		}
	}
}

// potentialCases runs check on a tree of leaf size 1 and the shipped leaf
// size under both criteria, softened and not, over an input with two
// coincident bodies: their pair is −G·m²/ε softened and, like their force,
// nothing unsoftened, and the list traversal, whose lists hold each target
// itself, must take its self term back out.
func potentialCases(t *testing.T, theta float64, check func(at string, tree *Tree, s *body.System, p grav.Params)) {
	r := par.NewRuntime(0, par.Dynamic)
	for _, eps := range []float64{1e-3, 0} {
		for _, leafSize := range []int{1, 0} {
			for _, crit := range []Criterion{CenterDistance, BoxDistance} {
				s := randomSystem(2000, 43)
				s.SetPos(1, s.Pos(0))
				tree := buildTree(t, Config{LeafSize: leafSize, Criterion: crit}, s, r)
				check(fmt.Sprintf("eps=%v leaf=%d %v", eps, leafSize, crit), tree, s, grav.Params{G: 2, Eps: eps, Theta: theta})
			}
		}
	}
}

// θ = 0 opens every node: both traversals' potentials sum the pairwise
// energy to rounding.
func TestPotentialMatchesExactAtThetaZero(t *testing.T) {
	r := par.NewRuntime(0, par.Dynamic)
	potentialCases(t, 0, func(at string, tree *Tree, s *body.System, p grav.Params) {
		checkPotentials(t, at, tree, r, s, p, 1e-12)
	})
}

// At the shipped θ the potential energy is no worse than the forces it
// comes with.
func TestPotentialWithinForceErrorEnvelope(t *testing.T) {
	r := par.NewRuntime(0, par.Dynamic)
	potentialCases(t, grav.DefaultParams().Theta, func(at string, tree *Tree, s *body.System, p grav.Params) {
		checkPotentials(t, at, tree, r, s, p, 0)
	})
}

// Sort, tree, accelerations and the potentials both traversals write are
// bit-identical for any worker count.
func TestPotentialsBitIdenticalAcrossWorkers(t *testing.T) {
	p := grav.Params{G: 1, Eps: 1e-3, Theta: 0.6}
	base := randomSystem(20000, 47)
	run := func(workers int) (phiWalk, phiList []float64, sys *body.System) {
		r := par.NewRuntime(workers, par.Dynamic)
		s := base.Clone()
		tree := buildTree(t, Config{}, s, r)
		phiWalk, phiList = make([]float64, s.N()), make([]float64, s.N())
		tree.Accelerations(r, par.ParUnseq, s.Clone(), p, phiWalk)
		walk.Accelerations(r, par.ParUnseq, tree.View(0), s, p, phiList)
		return phiWalk, phiList, s
	}
	refWalk, refList, ref := run(1)
	for _, workers := range []int{2, 5} {
		phiWalk, phiList, s := run(workers)
		if !slices.Equal(ref.ID, s.ID) || !slices.Equal(ref.AccX, s.AccX) || !slices.Equal(ref.AccY, s.AccY) || !slices.Equal(ref.AccZ, s.AccZ) {
			t.Errorf("%d workers: body order or accelerations differ from 1 worker", workers)
		}
		if !slices.Equal(refWalk, phiWalk) || !slices.Equal(refList, phiList) {
			t.Errorf("%d workers: potentials differ from 1 worker", workers)
		}
	}
}

func TestSkipNext(t *testing.T) {
	// Walking skipNext over a depth-3 heap (leaves 4..7) from the root's
	// left spine must enumerate the standard DFS "next subtree" order.
	cases := map[int]int{
		4: 5, // left leaf -> right sibling
		5: 3, // right leaf -> parent's sibling
		2: 3, // left interior -> right sibling
		6: 7,
		7: 0, // last leaf -> done
		3: 0, // right interior under root -> done
		1: 0, // root itself -> done
	}
	for node, want := range cases {
		if got := skipNext(node); got != want {
			t.Errorf("skipNext(%d) = %d, want %d", node, got, want)
		}
	}
}

func TestStats(t *testing.T) {
	n := 4096
	s := randomSystem(n, 97)
	r := par.NewRuntime(0, par.Dynamic)
	tree := buildTree(t, Config{LeafSize: 4}, s, r)
	st := tree.Stats()
	if st.Bodies != n {
		t.Errorf("Bodies = %d", st.Bodies)
	}
	if st.Leaves == 0 || st.Leaves > tree.NumLeaves() {
		t.Errorf("Leaves = %d", st.Leaves)
	}
	if st.MeanLeafDiagonal <= 0 || st.MeanElongation < 1 {
		t.Errorf("quality metrics: %+v", st)
	}
	if st.SiblingOverlap < 0 || st.SiblingOverlap > 1 {
		t.Errorf("overlap out of range: %v", st.SiblingOverlap)
	}
	if len(st.String()) == 0 {
		t.Error("empty Stats string")
	}
}

// Property: random systems always produce structurally valid trees whose
// θ=0 forces match all-pairs.
func TestPropBuildAndExactForce(t *testing.T) {
	r := par.NewRuntime(0, par.Dynamic)
	f := func(seed uint64, nRaw uint8, leafRaw uint8) bool {
		n := int(nRaw%60) + 1
		leafSize := int(leafRaw%6) + 1
		s := randomSystem(n, seed)
		tree := New(Config{LeafSize: leafSize})
		box := bounds.OfPositions(r, par.ParUnseq, s.PosX, s.PosY, s.PosZ)
		tree.Build(r, par.ParUnseq, s, box)

		p := grav.Params{G: 1, Eps: 1e-3, Theta: 0}
		ref := s.Clone()
		allpairs.AllPairs(r, par.ParUnseq, ref, p)
		tree.Accelerations(r, par.ParUnseq, s, p, nil)
		for i := 0; i < n; i++ {
			if s.Acc(i).Sub(ref.Acc(i)).Norm() > 1e-9*(1+ref.Acc(i).Norm()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBuild1e5(b *testing.B) {
	s := randomSystem(100000, 1)
	r := par.NewRuntime(0, par.Dynamic)
	box := bounds.OfPositions(r, par.ParUnseq, s.PosX, s.PosY, s.PosZ)
	tree := New(Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Build(r, par.ParUnseq, s, box)
	}
}

func BenchmarkForce1e5(b *testing.B) {
	s := randomSystem(100000, 1)
	r := par.NewRuntime(0, par.Dynamic)
	box := bounds.OfPositions(r, par.ParUnseq, s.PosX, s.PosY, s.PosZ)
	tree := New(Config{})
	tree.Build(r, par.ParUnseq, s, box)
	p := grav.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Accelerations(r, par.ParUnseq, s, p, nil)
	}
}

// BenchmarkAccelerationsList1e5 times the force pass the engine runs by
// default: one walk per 32-body group, then the flat list kernel.
func BenchmarkAccelerationsList1e5(b *testing.B) {
	s := randomSystem(100000, 1)
	r := par.NewRuntime(0, par.Dynamic)
	box := bounds.OfPositions(r, par.ParUnseq, s.PosX, s.PosY, s.PosZ)
	tree := New(Config{})
	tree.Build(r, par.ParUnseq, s, box)
	p := grav.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.AccelerationsList(r, par.ParUnseq, s, p, 0)
	}
}
