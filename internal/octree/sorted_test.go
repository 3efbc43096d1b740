package octree

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"nbody/internal/allpairs"
	"nbody/internal/body"
	"nbody/internal/bounds"
	"nbody/internal/grav"
	"nbody/internal/par"
	"nbody/internal/sfc"
	"nbody/internal/vec"
)

// The tests below cover the key-sorted build (Config.KeySorted): against
// the concurrent build as oracle at a leaf bucket of one, and on its own at
// the shipped bucket.

var sortedCfg = Config{KeySorted: true}

// buildBucket is buildTree through newBucket.
func buildBucket(t *testing.T, bucket int, s *body.System, r *par.Runtime) *Tree {
	t.Helper()
	tree := newBucket(sortedCfg, bucket)
	box := bounds.OfPositions(r, par.ParUnseq, s.PosX, s.PosY, s.PosZ)
	if err := tree.Build(r, s, box); err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tree
}

// accByID returns the accelerations of s indexed by body ID.
func accByID(s *body.System) []vec.V3 {
	out := make([]vec.V3, s.N())
	for i := range out {
		out[s.ID[i]] = s.Acc(i)
	}
	return out
}

// With one body per leaf, counting over sorted keys must produce the tree
// concurrent insertion produces — same shape, same forces — as long as no
// two bodies share a cell of the 2²¹ key grid.
func TestSortedBuildBucketOneMatchesConcurrent(t *testing.T) {
	r := par.NewRuntime(0, par.Dynamic)
	p := grav.Params{G: 1, Eps: 1e-3, Theta: 0.5}
	for _, n := range []int{2, 9, 4000, 20000} {
		plain := randomSystem(n, uint64(n)+171)
		sorted := plain.Clone()

		cas := buildTree(t, Config{}, plain, r)
		key := buildBucket(t, 1, sorted, r)
		if err := key.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if a, b := cas.Stats(), key.Stats(); a != b {
			t.Errorf("n=%d: tree shapes differ: concurrent %v, key-sorted %v", n, a, b)
		}

		cas.ComputeMoments(r, plain)
		cas.Accelerations(r, par.ParUnseq, plain, p, nil)
		key.ComputeMoments(r, sorted)
		key.Accelerations(r, par.ParUnseq, sorted, p, nil)
		want, got := accByID(plain), accByID(sorted)
		for id := range want {
			if d := got[id].Sub(want[id]).Norm(); d > 1e-9*(1+want[id].Norm()) {
				t.Fatalf("n=%d body %d: key-sorted force differs by %g", n, id, d)
			}
		}
	}
}

// Tree, moments, accelerations and the potentials both traversals write of
// the sorted build are bit-identical for any worker count. n is above SortByKeys's sequential cut-off, so the
// parallel radix sort and the parallel level passes run (and run under
// -race).
func TestSortedBuildBitIdenticalAcrossWorkers(t *testing.T) {
	p := grav.Params{G: 1, Eps: 1e-3, Theta: 0.6}
	base := clusteredSystem(20000, 173)
	background := randomSystem(5000, 174) // uniform, around the clusters
	for i := 0; i < background.N(); i++ {
		base.SetPos(i, background.Pos(i))
	}

	type result struct {
		tree             *Tree
		sys              *body.System
		phiList, phiWalk []float64
	}
	run := func(workers int) result {
		r := par.NewRuntime(workers, par.Dynamic)
		s := base.Clone()
		tree := buildTree(t, sortedCfg, s, r)
		tree.ComputeMoments(r, s)
		res := result{tree, s, make([]float64, s.N()), make([]float64, s.N())}
		tree.Accelerations(r, par.ParUnseq, s.Clone(), p, res.phiWalk)
		tree.AccelerationsListPhi(r, par.ParUnseq, s, p, 0, res.phiList)
		return res
	}
	ref := run(1)
	if err := ref.tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	nodes, groups := ref.tree.NumNodes(), ref.tree.NumGroups()
	for _, workers := range []int{2, 5} {
		got := run(workers)
		if got.tree.NumNodes() != nodes {
			t.Fatalf("%d workers: %d nodes, 1 worker: %d", workers, got.tree.NumNodes(), nodes)
		}
		a, b := ref.tree, got.tree
		same := slices.Equal(a.child[:nodes], b.child[:nodes]) &&
			slices.Equal(a.parent[:groups], b.parent[:groups]) &&
			slices.Equal(a.depth[:groups], b.depth[:groups]) &&
			slices.Equal(a.nodes[:nodes], b.nodes[:nodes])
		if !same {
			t.Errorf("%d workers: tree, records or moments differ from 1 worker", workers)
		}
		if !slices.Equal(ref.sys.ID, got.sys.ID) ||
			!slices.Equal(ref.sys.AccX, got.sys.AccX) ||
			!slices.Equal(ref.sys.AccY, got.sys.AccY) ||
			!slices.Equal(ref.sys.AccZ, got.sys.AccZ) {
			t.Errorf("%d workers: body order or accelerations differ from 1 worker", workers)
		}
		if !slices.Equal(ref.phiList, got.phiList) || !slices.Equal(ref.phiWalk, got.phiWalk) {
			t.Errorf("%d workers: potentials differ from 1 worker", workers)
		}
	}
}

// Every body of every leaf lies in the cell its key names. A leaf's child
// slots from the root down are the first d Hilbert digits of the key of
// each body in it, and those digits, decoded with sfc.HilbertCoords3D, are
// the cell of the 2^d-per-side grid over the root cube that holds the body.
func TestSortedLeavesLieInTheirKeysCells(t *testing.T) {
	r := par.NewRuntime(3, par.Dynamic)
	for _, s := range []*body.System{randomSystem(20000, 197), clusteredSystem(20000, 199)} {
		tree := buildTree(t, sortedCfg, s, r)
		box := tree.RootBox()
		tol := 1e-9 * box.MaxExtent()
		leaves := 0
		for node := int32(0); node < int32(tree.NumNodes()); node++ {
			tok := tree.child[node]
			if tok >= 0 || tok == TokenEmpty {
				continue
			}
			leaves++
			d := tree.depthOf(node)
			var path uint64 // the slots from the root to node, as octal digits
			for c, k := node, 0; c != 0; c, k = tree.parentOf(c), k+1 {
				path |= uint64((c-1)%8) << (3 * k)
			}
			var cx, cy, cz uint32
			if d > 0 {
				cx, cy, cz = sfc.HilbertCoords3D(path, uint(d))
			}
			size := box.MaxExtent() / float64(uint64(1)<<d)
			lo := box.Min.Add(vec.New(float64(cx), float64(cy), float64(cz)).Scale(size))
			for b := tokenBody(tok); b < tree.nodes[node].Hi; b++ {
				if prefix := tree.keys[b] >> (3 * (sfc.MaxOrder3D - d)); prefix != path {
					t.Fatalf("leaf %d at depth %d: body %d's key starts %o, the leaf's path is %o", node, d, b, prefix, path)
				}
				p := s.Pos(int(b))
				for axis, v := range [3]float64{p.X - lo.X, p.Y - lo.Y, p.Z - lo.Z} {
					if v < -tol || v > size+tol {
						t.Fatalf("leaf %d at depth %d: body %d at %v is outside its cell %v + %g on axis %d", node, d, b, p, lo, size, axis)
					}
				}
			}
		}
		if leaves < s.N()/leafBucket {
			t.Fatalf("%d leaves for %d bodies", leaves, s.N())
		}
	}
}

// Degenerate inputs: the sorted build must terminate, keep the invariants
// and give finite forces through all three traversals.
func TestSortedBuildDegenerateInputs(t *testing.T) {
	line := body.NewSystem(300)
	for i := 0; i < line.N(); i++ {
		line.Set(i, 1, vec.New(float64(i)*0.01, 0, 0), vec.Zero)
	}
	faces := randomSystem(200, 179) // half the bodies on the upper faces of the root cube
	for i := 0; i < 100; i++ {
		pos := faces.Pos(i)
		switch i % 3 {
		case 0:
			pos.X = 10
		case 1:
			pos.Y = 10
		default:
			pos.Z = 10
		}
		faces.SetPos(i, pos)
	}
	faces.SetPos(100, vec.New(10, 10, 10))
	faces.SetPos(101, vec.New(-10, -10, -10))
	masses := randomSystem(500, 181)
	for i := 0; i < masses.N(); i += 7 {
		masses.Mass[i] = 1e12
	}
	coincident := body.NewSystem(100)
	for i := 0; i < coincident.N(); i++ {
		coincident.Set(i, 1, vec.New(0.5, -2, 7), vec.Zero)
	}

	cases := []struct {
		name string
		sys  *body.System
	}{
		{"n=0", randomSystem(0, 1)},
		{"n=1", randomSystem(1, 2)},
		{"n=2", randomSystem(2, 3)},
		{"collinear", line},
		{"upper faces", faces},
		{"mass ratio 1e12", masses},
		{"coincident", coincident},
	}
	r := par.NewRuntime(3, par.Dynamic)
	p := grav.Params{G: 1, Eps: 1e-3, Theta: 0.5}
	for _, c := range cases {
		for _, bucket := range []int{1, leafBucket} {
			s := c.sys.Clone()
			tree := buildBucket(t, bucket, s, r)
			if err := tree.CheckInvariants(); err != nil {
				t.Errorf("%s, bucket %d: %v", c.name, bucket, err)
				continue
			}
			tree.ComputeMoments(r, s)
			phi := make([]float64, s.N())
			tree.Accelerations(r, par.ParUnseq, s, p, phi)
			walk := accByID(s)
			tree.accelerationsList(r, par.ParUnseq, s, p, 0, nil)
			list := accByID(s)
			for i := range walk {
				if !walk[i].IsFinite() || !list[i].IsFinite() || math.IsNaN(phi[i]) || math.IsInf(phi[i], 0) {
					t.Errorf("%s, bucket %d, body %d: walk %v list %v phi %v", c.name, bucket, i, walk[i], list[i], phi[i])
					break
				}
			}
		}
	}

	// Bodies no key can separate end in one leaf at the key depth cap,
	// whatever the bucket: a chain of sfc.MaxOrder3D single-child groups.
	for _, bucket := range []int{1, leafBucket} {
		st := buildBucket(t, bucket, coincident.Clone(), r).Stats()
		want := Stats{Bodies: 100, Groups: sfc.MaxOrder3D, Nodes: 1 + 8*sfc.MaxOrder3D,
			Leaves: 7*sfc.MaxOrder3D + 1, EmptyLeafs: 7 * sfc.MaxOrder3D, MaxDepth: sfc.MaxOrder3D, Chained: 99}
		if st != want {
			t.Errorf("coincident, bucket %d: %v, want %v", bucket, st, want)
		}
	}
}

// θ = 0 opens every node and every bucket: both traversals of the sorted
// tree, and the potentials they write, must equal the direct sum to
// rounding.
func TestSortedBuildExactWhenThetaZero(t *testing.T) {
	r := par.NewRuntime(0, par.Dynamic)
	p := grav.Params{G: 2, Eps: 1e-3, Theta: 0}
	for _, n := range []int{2, 63, 1500} {
		s := randomSystem(n, uint64(n)+191)
		tree := buildTree(t, sortedCfg, s, r)
		tree.ComputeMoments(r, s)

		ref := s.Clone()
		allpairs.AllPairs(r, par.ParUnseq, ref, p)
		check := func(name string) {
			t.Helper()
			for i := 0; i < n; i++ {
				if s.Acc(i).Sub(ref.Acc(i)).Norm() > 1e-10*(1+ref.Acc(i).Norm()) {
					t.Fatalf("n=%d %s body %d: %v vs %v", n, name, i, s.Acc(i), ref.Acc(i))
				}
			}
		}
		tree.Accelerations(r, par.ParUnseq, s, p, nil)
		check("walk")
		tree.accelerationsList(r, par.ParUnseq, s, p, 0, nil)
		check("list")
		checkPotentials(t, fmt.Sprintf("n=%d", n), tree, r, s, p, 1e-12)
	}
}

// Tree reuse: after the bodies drift, ComputeMoments on the kept topology
// must give every node the moments of the bodies in its range.
func TestSortedMomentsFollowDriftOnKeptTopology(t *testing.T) {
	r := par.NewRuntime(0, par.Dynamic)
	s := randomSystem(5000, 193)
	tree := buildTree(t, Config{KeySorted: true}, s, r)
	tree.ComputeMoments(r, s)
	for i := 0; i < s.N(); i++ {
		d := 0.3 * math.Sin(float64(i))
		s.SetPos(i, s.Pos(i).Add(vec.New(d, -d, 2*d)))
	}
	tree.ComputeMoments(r, s)

	// direct returns Σm and Σm·x over the bodies below node.
	var direct func(node int32) (m float64, mx vec.V3)
	direct = func(node int32) (m float64, mx vec.V3) {
		tok := tree.child[node]
		if tok >= 0 {
			for c := tok; c < tok+8; c++ {
				cm, cmx := direct(c)
				m, mx = m+cm, mx.Add(cmx)
			}
			return m, mx
		}
		for _, b := range tree.LeafBodies(node) {
			m += s.Mass[b]
			mx = mx.Add(s.Pos(int(b)).Scale(s.Mass[b]))
		}
		return m, mx
	}
	for node := int32(0); node < int32(tree.NumNodes()); node++ {
		m, mx := direct(node)
		if m == 0 {
			if tree.nodes[node].M != 0 {
				t.Fatalf("node %d: mass %v in an empty range", node, tree.nodes[node].M)
			}
			continue
		}
		nd := &tree.nodes[node]
		com := vec.New(nd.X, nd.Y, nd.Z)
		if math.Abs(nd.M-m) > 1e-12*m || com.Sub(mx.Scale(1/m)).Norm() > 1e-11 {
			t.Fatalf("node %d: moments (%v, %v), direct sum (%v, %v)", node, nd.M, com, m, mx.Scale(1/m))
		}
	}
}
