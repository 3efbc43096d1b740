package octree

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"nbody/internal/allpairs"
	"nbody/internal/body"
	"nbody/internal/bounds"
	"nbody/internal/grav"
	"nbody/internal/par"
	"nbody/internal/rng"
	"nbody/internal/vec"
)

func randomSystem(n int, seed uint64) *body.System {
	src := rng.New(seed)
	s := body.NewSystem(n)
	for i := 0; i < n; i++ {
		s.Set(i, src.Range(0.5, 1.5),
			vec.New(src.Range(-10, 10), src.Range(-10, 10), src.Range(-10, 10)),
			vec.Zero)
	}
	return s
}

// clusteredSystem produces a few dense clusters — the adversarial shape for
// pool sizing and tree depth.
func clusteredSystem(n int, seed uint64) *body.System {
	src := rng.New(seed)
	s := body.NewSystem(n)
	for i := 0; i < n; i++ {
		c := float64(src.Intn(4))*5 - 10
		s.Set(i, 1,
			vec.New(c+src.Norm()*1e-4, c+src.Norm()*1e-4, c+src.Norm()*1e-4),
			vec.Zero)
	}
	return s
}

func buildTree(t *testing.T, cfg Config, s *body.System, r *par.Runtime) *Tree {
	t.Helper()
	tree := New(cfg)
	box := bounds.OfPositions(r, par.ParUnseq, s.PosX, s.PosY, s.PosZ)
	if err := tree.Build(r, s, box); err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tree
}

func TestBuildSingleBody(t *testing.T) {
	s := body.NewSystem(1)
	s.Set(0, 2, vec.New(1, 2, 3), vec.Zero)
	r := par.NewRuntime(4, par.Dynamic)
	tree := buildTree(t, Config{}, s, r)
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tree.NumGroups() != 0 {
		t.Errorf("single body allocated %d groups", tree.NumGroups())
	}
	leaf := findLeaf(tree, 1, 2, 3)
	if leaf != 0 {
		t.Errorf("single body leaf = %d, want root", leaf)
	}
	if got := tree.LeafBodies(0); len(got) != 1 || got[0] != 0 {
		t.Errorf("LeafBodies(root) = %v", got)
	}
}

func TestBuildEmptySystem(t *testing.T) {
	s := body.NewSystem(0)
	r := par.NewRuntime(4, par.Dynamic)
	tree := New(Config{})
	if err := tree.Build(r, s, bounds.Empty().Extend(vec.Zero)); err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tree.ComputeMoments(r, s)
	if tree.TotalMass() != 0 {
		t.Errorf("empty tree mass = %v", tree.TotalMass())
	}
}

func TestBuildTwoOctants(t *testing.T) {
	s := body.NewSystem(2)
	s.Set(0, 1, vec.New(-1, -1, -1), vec.Zero)
	s.Set(1, 1, vec.New(1, 1, 1), vec.Zero)
	r := par.NewRuntime(2, par.Dynamic)
	tree := buildTree(t, Config{}, s, r)
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tree.NumGroups() != 1 {
		t.Errorf("two separable bodies allocated %d groups, want 1", tree.NumGroups())
	}
	// The two bodies must sit in distinct leaves each containing one body.
	l0 := findLeaf(tree, -1, -1, -1)
	l1 := findLeaf(tree, 1, 1, 1)
	if l0 == l1 {
		t.Errorf("both bodies in leaf %d", l0)
	}
	if got := tree.LeafBodies(l0); len(got) != 1 || got[0] != 0 {
		t.Errorf("leaf %d bodies = %v", l0, got)
	}
	if got := tree.LeafBodies(l1); len(got) != 1 || got[0] != 1 {
		t.Errorf("leaf %d bodies = %v", l1, got)
	}
}

func TestBuildInvariantsRandom(t *testing.T) {
	for _, n := range []int{3, 10, 100, 1000, 20000} {
		for _, workers := range []int{1, 4, 0} {
			r := par.NewRuntime(workers, par.Dynamic)
			s := randomSystem(n, uint64(n))
			tree := buildTree(t, Config{}, s, r)
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
		}
	}
}

func TestBuildInvariantsClustered(t *testing.T) {
	r := par.NewRuntime(0, par.Dynamic)
	s := clusteredSystem(5000, 3)
	tree := buildTree(t, Config{}, s, r)
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := tree.Stats()
	if st.MaxDepth < 10 {
		t.Errorf("clustered tree suspiciously shallow: %v", st)
	}
}

func TestBuildEveryBodyFindable(t *testing.T) {
	r := par.NewRuntime(0, par.Dynamic)
	s := randomSystem(5000, 7)
	tree := buildTree(t, Config{}, s, r)
	for i := 0; i < s.N(); i++ {
		leaf := findLeaf(tree, s.PosX[i], s.PosY[i], s.PosZ[i])
		if leaf < 0 {
			t.Fatalf("body %d: findLeaf failed", i)
		}
		found := false
		for _, b := range tree.LeafBodies(leaf) {
			if int(b) == i {
				found = true
			}
		}
		if !found {
			t.Fatalf("body %d not at its covering leaf %d", i, leaf)
		}
	}
}

func TestTopologyDeterministic(t *testing.T) {
	// The shape of the octree depends only on the body positions, not on
	// the racy insertion order: leaf/node/depth statistics must be
	// identical across repeated concurrent builds.
	s := randomSystem(3000, 11)
	r := par.NewRuntime(0, par.Dynamic)
	ref := buildTree(t, Config{}, s, r).Stats()
	for trial := 0; trial < 5; trial++ {
		st := buildTree(t, Config{}, s, r).Stats()
		if st != ref {
			t.Fatalf("trial %d: stats %v != %v", trial, st, ref)
		}
	}
}

func TestCoincidentBodiesChain(t *testing.T) {
	// Bodies at exactly the same position can never be separated; they
	// must end up chained at a max-depth leaf, not loop forever.
	s := body.NewSystem(4)
	for i := 0; i < 4; i++ {
		s.Set(i, 1, vec.New(0.5, 0.5, 0.5), vec.Zero)
	}
	// A second, separable body group so the tree is not a single leaf.
	r := par.NewRuntime(4, par.Dynamic)
	tree := buildTree(t, Config{MaxDepth: 8}, s, r)
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := tree.Stats()
	if st.Chained != 3 {
		t.Errorf("expected 3 chained bodies, got %v", st)
	}
	if st.MaxDepth > 8 {
		t.Errorf("depth cap violated: %v", st)
	}
}

func TestNearCoincidentDeepSubdivision(t *testing.T) {
	// Two bodies 1e-12 apart inside a unit box need ~40 levels; the
	// default MaxDepth accommodates this without chaining.
	s := body.NewSystem(3)
	s.Set(0, 1, vec.New(0.1, 0.1, 0.1), vec.Zero)
	s.Set(1, 1, vec.New(0.1+1e-12, 0.1, 0.1), vec.Zero)
	s.Set(2, 1, vec.New(0.9, 0.9, 0.9), vec.Zero)
	r := par.NewRuntime(2, par.Dynamic)
	tree := buildTree(t, Config{}, s, r)
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := tree.Stats()
	if st.Chained != 0 {
		t.Errorf("distinct positions should separate: %v", st)
	}
	if st.MaxDepth < 30 {
		t.Errorf("expected deep subdivision, got %v", st)
	}
}

func TestContentionStress(t *testing.T) {
	// All bodies inside a tiny ball in one corner: every insertion walks
	// the same deep path, maximizing lock contention on shared nodes.
	// With many workers and grain 1 this hammers the CAS locking; run
	// under -race for the full effect.
	src := rng.New(97)
	n := 4000
	s := body.NewSystem(n)
	for i := 0; i < n; i++ {
		s.Set(i, 1, vec.New(
			100+src.Norm()*1e-6,
			100+src.Norm()*1e-6,
			100+src.Norm()*1e-6), vec.Zero)
	}
	// Add one far body so the root cell is large and the cluster is deep.
	s.Set(0, 1, vec.New(-100, -100, -100), vec.Zero)

	r := par.NewRuntime(16, par.Dynamic).WithGrain(1)
	for trial := 0; trial < 3; trial++ {
		tree := buildTree(t, Config{}, s, r)
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tree.ComputeMoments(r, s)
		if math.Abs(tree.TotalMass()-float64(n)) > 1e-6 {
			t.Fatalf("trial %d: mass %v", trial, tree.TotalMass())
		}
	}
}

func TestPoolGrowth(t *testing.T) {
	// Clustered bodies demand far more groups than the uniform estimate;
	// Build must grow transparently.
	r := par.NewRuntime(0, par.Dynamic)
	s := clusteredSystem(2000, 17)
	tree := New(Config{})
	box := bounds.OfPositions(r, par.ParUnseq, s.PosX, s.PosY, s.PosZ)
	if err := tree.Build(r, s, box); err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildReuseAcrossSteps(t *testing.T) {
	// Rebuilding with the same Tree must fully reset state.
	r := par.NewRuntime(0, par.Dynamic)
	tree := New(Config{})
	for step := 0; step < 5; step++ {
		s := randomSystem(2000, uint64(step+1))
		box := bounds.OfPositions(r, par.ParUnseq, s.PosX, s.PosY, s.PosZ)
		if err := tree.Build(r, s, box); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		tree.ComputeMoments(r, s)
		if math.Abs(tree.TotalMass()-s.TotalMass()) > 1e-9 {
			t.Fatalf("step %d: mass %v != %v", step, tree.TotalMass(), s.TotalMass())
		}
	}
}

func TestMomentsRootTotals(t *testing.T) {
	for _, gather := range []bool{false, true} {
		s := randomSystem(5000, 23)
		r := par.NewRuntime(0, par.Dynamic)
		tree := buildTree(t, Config{GatherMoments: gather}, s, r)
		tree.ComputeMoments(r, s)

		wantMass := s.TotalMass()
		if math.Abs(tree.TotalMass()-wantMass) > 1e-9*wantMass {
			t.Errorf("gather=%v: root mass %v, want %v", gather, tree.TotalMass(), wantMass)
		}
		com := s.CenterOfMass()
		gx, gy, gz := tree.CenterOfMass()
		if math.Abs(gx-com.X)+math.Abs(gy-com.Y)+math.Abs(gz-com.Z) > 1e-9 {
			t.Errorf("gather=%v: root com (%v,%v,%v), want %v", gather, gx, gy, gz, com)
		}
	}
}

func TestMomentsVariantsAgree(t *testing.T) {
	s := randomSystem(3000, 29)
	r := par.NewRuntime(0, par.Dynamic)
	scatter := buildTree(t, Config{GatherMoments: false}, s, r)
	gather := buildTree(t, Config{GatherMoments: true}, s, r)
	scatter.ComputeMoments(r, s)
	gather.ComputeMoments(r, s)
	if math.Abs(scatter.TotalMass()-gather.TotalMass()) > 1e-9 {
		t.Errorf("variants disagree on mass: %v vs %v", scatter.TotalMass(), gather.TotalMass())
	}
}

func TestMasslessBodies(t *testing.T) {
	// Tracer particles with zero mass must not poison the tree with NaNs.
	s := randomSystem(100, 31)
	for i := 50; i < 100; i++ {
		s.Mass[i] = 0
	}
	r := par.NewRuntime(4, par.Dynamic)
	tree := buildTree(t, Config{}, s, r)
	tree.ComputeMoments(r, s)
	tree.Accelerations(r, par.ParUnseq, s, grav.DefaultParams(), nil)
	for i := 0; i < s.N(); i++ {
		if !s.Acc(i).IsFinite() {
			t.Fatalf("body %d acceleration %v", i, s.Acc(i))
		}
	}
}

// Theta = 0 forces the traversal to open every node: the result must match
// the all-pairs reference to floating-point reassociation tolerance.
func TestForceExactWhenThetaZero(t *testing.T) {
	for _, n := range []int{2, 10, 100, 1500} {
		s := randomSystem(n, uint64(n)+41)
		ref := s.Clone()
		r := par.NewRuntime(0, par.Dynamic)
		p := grav.Params{G: 1, Eps: 1e-3, Theta: 0}

		allpairs.AllPairs(r, par.ParUnseq, ref, p)

		tree := buildTree(t, Config{}, s, r)
		tree.ComputeMoments(r, s)
		tree.Accelerations(r, par.ParUnseq, s, p, nil)

		for i := 0; i < n; i++ {
			d := s.Acc(i).Sub(ref.Acc(i)).Norm()
			scale := 1 + ref.Acc(i).Norm()
			if d/scale > 1e-10 {
				t.Fatalf("n=%d body %d: octree %v vs all-pairs %v", n, i, s.Acc(i), ref.Acc(i))
			}
		}
	}
}

// With θ = 0.5 the approximation error against all-pairs must be small and
// bounded — the accuracy contract of Barnes-Hut.
func TestForceApproximationQuality(t *testing.T) {
	n := 2000
	s := randomSystem(n, 43)
	ref := s.Clone()
	r := par.NewRuntime(0, par.Dynamic)
	p := grav.Params{G: 1, Eps: 1e-3, Theta: 0.5}

	allpairs.AllPairs(r, par.ParUnseq, ref, p)
	tree := buildTree(t, Config{}, s, r)
	tree.ComputeMoments(r, s)
	tree.Accelerations(r, par.ParUnseq, s, p, nil)

	var sumRel float64
	for i := 0; i < n; i++ {
		rel := s.Acc(i).Sub(ref.Acc(i)).Norm() / (ref.Acc(i).Norm() + 1e-12)
		sumRel += rel
		if rel > 0.2 {
			t.Errorf("body %d: relative force error %v", i, rel)
		}
	}
	if mean := sumRel / float64(n); mean > 0.02 {
		t.Errorf("mean relative force error %v exceeds 2%%", mean)
	}
}

// Smaller θ must give a more accurate force field (monotone accuracy knob).
func TestForceErrorDecreasesWithTheta(t *testing.T) {
	n := 1500
	s := randomSystem(n, 47)
	ref := s.Clone()
	r := par.NewRuntime(0, par.Dynamic)

	meanErr := func(theta float64) float64 {
		p := grav.Params{G: 1, Eps: 1e-3, Theta: theta}
		allpairs.AllPairs(r, par.ParUnseq, ref, p)
		work := s.Clone()
		tree := buildTree(t, Config{}, work, r)
		tree.ComputeMoments(r, work)
		tree.Accelerations(r, par.ParUnseq, work, p, nil)
		var sum float64
		for i := 0; i < n; i++ {
			sum += work.Acc(i).Sub(ref.Acc(i)).Norm() / (ref.Acc(i).Norm() + 1e-12)
		}
		return sum / float64(n)
	}

	e8, e4, e2 := meanErr(0.8), meanErr(0.4), meanErr(0.2)
	if !(e2 <= e4 && e4 <= e8) {
		t.Errorf("errors not monotone in theta: θ=0.8→%g θ=0.4→%g θ=0.2→%g", e8, e4, e2)
	}
}

// Forces computed through chained (coincident) bodies stay finite and equal
// the all-pairs result.
func TestForceWithChains(t *testing.T) {
	s := body.NewSystem(6)
	for i := 0; i < 3; i++ {
		s.Set(i, 1, vec.New(0.25, 0.25, 0.25), vec.Zero)
	}
	s.Set(3, 1, vec.New(0.75, 0.75, 0.75), vec.Zero)
	s.Set(4, 1, vec.New(0.75, 0.25, 0.75), vec.Zero)
	s.Set(5, 1, vec.New(0.25, 0.75, 0.75), vec.Zero)
	ref := s.Clone()
	r := par.NewRuntime(4, par.Dynamic)
	p := grav.Params{G: 1, Eps: 1e-2, Theta: 0}

	allpairs.AllPairs(r, par.ParUnseq, ref, p)
	tree := buildTree(t, Config{MaxDepth: 4}, s, r)
	tree.ComputeMoments(r, s)
	tree.Accelerations(r, par.ParUnseq, s, p, nil)

	for i := 0; i < s.N(); i++ {
		d := s.Acc(i).Sub(ref.Acc(i)).Norm()
		if d > 1e-10 {
			t.Fatalf("body %d: %v vs %v", i, s.Acc(i), ref.Acc(i))
		}
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
		if tr.name == "list" && !tree.Config().KeySorted {
			continue // the list walk reads the key-sorted build only
		}
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

// potentialCases runs check on both builds, softened and not, of an input
// with two coincident bodies: their pair is −G·m²/ε softened and, like
// their force, nothing unsoftened, and the list traversal, whose lists
// hold each target itself, must take its self term back out.
func potentialCases(t *testing.T, theta float64, check func(at string, tree *Tree, s *body.System, p grav.Params)) {
	r := par.NewRuntime(0, par.Dynamic)
	for _, eps := range []float64{1e-3, 0} {
		for _, cfg := range []Config{{}, {KeySorted: true}} {
			s := randomSystem(2000, 59)
			s.SetPos(1, s.Pos(0))
			tree := buildTree(t, cfg, s, r)
			tree.ComputeMoments(r, s)
			check(fmt.Sprintf("eps=%v sorted=%v", eps, cfg.KeySorted), tree, s, grav.Params{G: 2, Eps: eps, Theta: theta})
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

func TestStatsString(t *testing.T) {
	s := randomSystem(100, 61)
	r := par.NewRuntime(2, par.Dynamic)
	tree := buildTree(t, Config{}, s, r)
	if str := tree.Stats().String(); len(str) == 0 {
		t.Error("empty Stats string")
	}
	if tree.RootBox().IsEmpty() {
		t.Error("root box empty after build")
	}
}

func TestErrPoolExhaustedIsWrapped(t *testing.T) {
	err := errors.New("wrap check")
	_ = err
	// Simulate the exhaustion error path: a tree with an absurd body
	// pattern would need more growth attempts than allowed. We verify the
	// sentinel is used by calling tryBuild on a deliberately tiny pool.
	s := randomSystem(512, 67)
	tree := New(Config{})
	tree.grow(2) // far too small, bypassing estimateGroups
	box := bounds.OfPositions(par.NewRuntime(1, par.Dynamic), par.Seq, s.PosX, s.PosY, s.PosZ)
	cube := box.Cube()
	tree.rootCenter = cube.Center()
	tree.rootHalf = cube.Size().X / 2
	tree.next = make([]int32, s.N())
	tree.nBodies = s.N()
	buildErr := tree.tryBuild(par.NewRuntime(1, par.Dynamic), s)
	if !errors.Is(buildErr, ErrPoolExhausted) {
		t.Errorf("tryBuild on tiny pool: %v", buildErr)
	}
}

// Property: for random small systems, invariants hold and θ=0 forces match
// the reference.
func TestPropBuildAndExactForce(t *testing.T) {
	r := par.NewRuntime(0, par.Dynamic)
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%60) + 2
		s := randomSystem(n, seed)
		ref := s.Clone()
		p := grav.Params{G: 1, Eps: 1e-3, Theta: 0}
		allpairs.AllPairs(r, par.ParUnseq, ref, p)
		tree := New(Config{})
		box := bounds.OfPositions(r, par.ParUnseq, s.PosX, s.PosY, s.PosZ)
		if err := tree.Build(r, s, box); err != nil {
			return false
		}
		if err := tree.CheckInvariants(); err != nil {
			return false
		}
		tree.ComputeMoments(r, s)
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
		if err := tree.Build(r, s, box); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMoments1e5(b *testing.B) {
	s := randomSystem(100000, 1)
	r := par.NewRuntime(0, par.Dynamic)
	box := bounds.OfPositions(r, par.ParUnseq, s.PosX, s.PosY, s.PosZ)
	tree := New(Config{})
	if err := tree.Build(r, s, box); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.ComputeMoments(r, s)
	}
}

func BenchmarkForce1e5(b *testing.B) {
	s := randomSystem(100000, 1)
	r := par.NewRuntime(0, par.Dynamic)
	box := bounds.OfPositions(r, par.ParUnseq, s.PosX, s.PosY, s.PosZ)
	tree := New(Config{})
	if err := tree.Build(r, s, box); err != nil {
		b.Fatal(err)
	}
	tree.ComputeMoments(r, s)
	p := grav.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Accelerations(r, par.ParUnseq, s, p, nil)
	}
}

// The key-sorted tree is what the flat layout runs: the three benchmarks
// below time its build, its level-by-level moment gather and the
// interaction-list force pass.

func BenchmarkSortedBuild1e5(b *testing.B) {
	s := randomSystem(100000, 1)
	r := par.NewRuntime(0, par.Dynamic)
	box := bounds.OfPositions(r, par.ParUnseq, s.PosX, s.PosY, s.PosZ)
	tree := New(Config{KeySorted: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.Build(r, s, box); err != nil {
			b.Fatal(err)
		}
	}
}

// sortedTree1e5 builds the key-sorted tree over 100 000 random bodies.
func sortedTree1e5(b *testing.B) (*Tree, *body.System, *par.Runtime) {
	s := randomSystem(100000, 1)
	r := par.NewRuntime(0, par.Dynamic)
	box := bounds.OfPositions(r, par.ParUnseq, s.PosX, s.PosY, s.PosZ)
	tree := New(Config{KeySorted: true})
	if err := tree.Build(r, s, box); err != nil {
		b.Fatal(err)
	}
	return tree, s, r
}

func BenchmarkSortedMoments1e5(b *testing.B) {
	tree, s, r := sortedTree1e5(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.ComputeMoments(r, s)
	}
}

func BenchmarkAccelerationsList1e5(b *testing.B) {
	tree, s, r := sortedTree1e5(b)
	tree.ComputeMoments(r, s)
	p := grav.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.AccelerationsList(r, par.ParUnseq, s, p, 0)
	}
}

// findLeaf returns the index of the leaf node whose cell covers position
// (x, y, z) in a tree of the concurrent build, following child links from
// the root exactly as insertion does: child slot = octant. It returns -1 if
// the traversal encounters an inconsistency. The key-sorted build orders
// children along the curve, so there it would take wrong turns.
func findLeaf(t *Tree, x, y, z float64) int32 {
	node := int32(0)
	cx, cy, cz := t.rootCenter.X, t.rootCenter.Y, t.rootCenter.Z
	half := t.rootHalf
	for {
		tok := t.child[node]
		if tok < 0 {
			return node
		}
		oct := int32(0)
		half *= 0.5
		if x >= cx {
			oct |= 4
			cx += half
		} else {
			cx -= half
		}
		if y >= cy {
			oct |= 2
			cy += half
		} else {
			cy -= half
		}
		if z >= cz {
			oct |= 1
			cz += half
		} else {
			cz -= half
		}
		node = tok + oct
		if node >= int32(t.NumNodes()) {
			return -1
		}
	}
}
