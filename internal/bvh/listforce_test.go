package bvh

import (
	"fmt"
	"math"
	"testing"

	"nbody/internal/allpairs"
	"nbody/internal/body"
	"nbody/internal/grav"
	"nbody/internal/par"
	"nbody/internal/rng"
	"nbody/internal/soa"
	"nbody/internal/vec"
	"nbody/internal/walk"
	"nbody/internal/workload"
)

// The tests below cover AccelerationsList, the group traversal ("Grouped"
// names the shared walk and its conservative opening criterion), under
// both Criterion values, whose group-level tests differ. Those on systems
// of at most allpairs.DirectMaxN bodies call the walk, accelerationsList,
// directly: AccelerationsList sums such systems pairwise.

var criteria = []Criterion{CenterDistance, BoxDistance}

// accelerationsList is AccelerationsListPhi's tree walk, at any N.
func (t *Tree) accelerationsList(r *par.Runtime, pol par.Policy, s *body.System, p grav.Params, groupBodies int, phi []float64) {
	walk.Walk(r, pol, t.View(groupBodies), s, p, phi)
}

// listError runs the list walk on s — at every N, below
// allpairs.DirectMaxN too — and returns its mean squared relative error
// against a direct sum over the same (already permuted) body order, next
// to that of the per-body walk.
func listError(tree *Tree, r *par.Runtime, s *body.System, p grav.Params, group int) (list, perBody float64) {
	ref, walk := s.Clone(), s.Clone()
	allpairs.AllPairs(r, par.ParUnseq, ref, p)
	tree.Accelerations(r, par.ParUnseq, walk, p, nil)
	tree.accelerationsList(r, par.ParUnseq, s, p, group, nil)
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

// oracle is the BVH as it was before the packed node record: eleven
// per-node arrays filled by the same level-by-level reduction, and walks
// that read them. The record walks must reproduce its interaction lists
// entry for entry and its per-body sums bit for bit.
type oracle struct {
	numLeaves, leafSize, n             int
	useBoxDist                         bool
	minX, minY, minZ, maxX, maxY, maxZ []float64
	m, comX, comY, comZ                []float64
	count                              []int32
}

func newOracle(s *body.System, numLeaves, leafSize int, crit Criterion) *oracle {
	nodes := 2 * numLeaves
	o := &oracle{numLeaves: numLeaves, leafSize: leafSize, n: s.N(), useBoxDist: crit == BoxDistance}
	for _, a := range []*[]float64{&o.minX, &o.minY, &o.minZ, &o.maxX, &o.maxY, &o.maxZ, &o.m, &o.comX, &o.comY, &o.comZ} {
		*a = make([]float64, nodes)
	}
	o.count = make([]int32, nodes)
	setEmpty := func(node int) {
		o.minX[node], o.minY[node], o.minZ[node] = math.Inf(1), math.Inf(1), math.Inf(1)
		o.maxX[node], o.maxY[node], o.maxZ[node] = math.Inf(-1), math.Inf(-1), math.Inf(-1)
	}
	copyNode := func(dst, src int) {
		o.minX[dst], o.minY[dst], o.minZ[dst] = o.minX[src], o.minY[src], o.minZ[src]
		o.maxX[dst], o.maxY[dst], o.maxZ[dst] = o.maxX[src], o.maxY[src], o.maxZ[src]
		o.m[dst] = o.m[src]
		o.comX[dst], o.comY[dst], o.comZ[dst] = o.comX[src], o.comY[src], o.comZ[src]
	}
	for j := 0; j < numLeaves; j++ {
		node := numLeaves + j
		b0, b1 := j*leafSize, min((j+1)*leafSize, o.n)
		if b0 >= o.n {
			setEmpty(node)
			continue
		}
		bmin, bmax := vec.Splat(math.Inf(1)), vec.Splat(math.Inf(-1))
		var lm, lx, ly, lz float64
		for b := b0; b < b1; b++ {
			p := s.Pos(b)
			bmin, bmax = bmin.Min(p), bmax.Max(p)
			lm += s.Mass[b]
			lx += s.Mass[b] * p.X
			ly += s.Mass[b] * p.Y
			lz += s.Mass[b] * p.Z
		}
		o.minX[node], o.minY[node], o.minZ[node] = bmin.X, bmin.Y, bmin.Z
		o.maxX[node], o.maxY[node], o.maxZ[node] = bmax.X, bmax.Y, bmax.Z
		o.m[node] = lm
		if lm > 0 {
			o.comX[node], o.comY[node], o.comZ[node] = lx/lm, ly/lm, lz/lm
		} else {
			c := bmin.Add(bmax).Scale(0.5)
			o.comX[node], o.comY[node], o.comZ[node] = c.X, c.Y, c.Z
		}
		o.count[node] = int32(b1 - b0)
	}
	for node := numLeaves - 1; node >= 1; node-- {
		l, r := 2*node, 2*node+1
		cl, cr := o.count[l], o.count[r]
		o.count[node] = cl + cr
		switch {
		case cl == 0 && cr == 0:
			setEmpty(node)
			continue
		case cr == 0:
			copyNode(node, l)
			continue
		case cl == 0:
			copyNode(node, r)
			continue
		}
		o.minX[node] = math.Min(o.minX[l], o.minX[r])
		o.minY[node] = math.Min(o.minY[l], o.minY[r])
		o.minZ[node] = math.Min(o.minZ[l], o.minZ[r])
		o.maxX[node] = math.Max(o.maxX[l], o.maxX[r])
		o.maxY[node] = math.Max(o.maxY[l], o.maxY[r])
		o.maxZ[node] = math.Max(o.maxZ[l], o.maxZ[r])
		lm := o.m[l] + o.m[r]
		o.m[node] = lm
		if lm > 0 {
			o.comX[node] = (o.m[l]*o.comX[l] + o.m[r]*o.comX[r]) / lm
			o.comY[node] = (o.m[l]*o.comY[l] + o.m[r]*o.comY[r]) / lm
			o.comZ[node] = (o.m[l]*o.comZ[l] + o.m[r]*o.comZ[r]) / lm
		} else {
			o.comX[node] = 0.5 * (o.minX[node] + o.maxX[node])
			o.comY[node] = 0.5 * (o.minY[node] + o.maxY[node])
			o.comZ[node] = 0.5 * (o.minZ[node] + o.maxZ[node])
		}
	}
	return o
}

func (o *oracle) extent(i int) float64 {
	ex := o.maxX[i] - o.minX[i]
	if ey := o.maxY[i] - o.minY[i]; ey > ex {
		ex = ey
	}
	if ez := o.maxZ[i] - o.minZ[i]; ez > ex {
		ex = ez
	}
	return ex
}

// boxDist2 is the squared distance between node i's box and the box
// [lo, hi] (zero when they overlap); a point is a box with lo == hi.
func (o *oracle) boxDist2(i int, lo, hi vec.V3) float64 {
	var d2 float64
	for _, v := range []float64{
		math.Max(0, o.minX[i]-hi.X) + math.Max(0, lo.X-o.maxX[i]),
		math.Max(0, o.minY[i]-hi.Y) + math.Max(0, lo.Y-o.maxY[i]),
		math.Max(0, o.minZ[i]-hi.Z) + math.Max(0, lo.Z-o.maxZ[i]),
	} {
		d2 += v * v
	}
	return d2
}

// walk visits the tree for targets inside the box [lo, hi] the way the
// eleven-array kernels did: accept(node) is called for each approximated
// node, leaf(b) for each body of each opened leaf. A leaf of more than one
// body is tested like an interior node.
func (o *oracle) walk(lo, hi vec.V3, theta2 float64, accept func(node int), leaf func(b int)) {
	node := 1
	for node != 0 {
		count := int(o.count[node])
		if count == 0 {
			node = skipNext(node)
			continue
		}
		isLeaf := node >= o.numLeaves
		if isLeaf && count == 1 {
			leaf((node - o.numLeaves) * o.leafSize)
			node = skipNext(node)
			continue
		}
		var crit2 float64
		if o.useBoxDist {
			crit2 = o.boxDist2(node, lo, hi)
		} else {
			c := vec.V3{X: o.comX[node], Y: o.comY[node], Z: o.comZ[node]}
			crit2 = vec.Zero.Max(lo.Sub(c)).Add(vec.Zero.Max(c.Sub(hi))).Norm2()
		}
		size := o.extent(node)
		switch {
		case size*size < theta2*crit2:
			accept(node)
			node = skipNext(node)
		case isLeaf:
			for b := (node - o.numLeaves) * o.leafSize; count > 0; b, count = b+1, count-1 {
				leaf(b)
			}
			node = skipNext(node)
		default:
			node = 2 * node
		}
	}
}

// TestRecordWalksMatchOracle pins bit-exactness at LeafSize 1 and 4: the
// same list for every group, and the same per-body accelerations and the
// potentials the walk writes beside them, as the eleven-array walks — on two inputs, under both
// criteria, on a fresh tree and after three refits.
func TestRecordWalksMatchOracle(t *testing.T) {
	r := par.NewRuntime(0, par.Dynamic)
	p := grav.Params{G: 1, Eps: 1e-3, Theta: 0.6}
	inputs := map[string]*body.System{
		"galaxy":  workload.GalaxyCollision(3000, 11),
		"plummer": workload.Plummer(2500, 12),
	}
	for name, input := range inputs {
		for _, leafSize := range []int{1, 4} {
			for _, crit := range criteria {
				for _, stale := range []bool{false, true} {
					s := input.Clone()
					tree := buildTree(t, Config{LeafSize: leafSize, Criterion: crit}, s, r)
					if stale {
						staleOrder(tree, r, s)
					}
					o := newOracle(s, tree.NumLeaves(), leafSize, crit)
					at := fmt.Sprintf("%s leaf=%d %v stale=%v", name, leafSize, crit, stale)
					matchOracle(t, r, at, tree, o, s, p)
				}
			}
		}
	}
}

// matchOracle checks tree's group lists, accelerations and potentials
// against o's, built over the same bodies.
func matchOracle(t *testing.T, r *par.Runtime, at string, tree *Tree, o *oracle, s *body.System, p grav.Params) {
	t.Helper()
	theta2 := p.Theta * p.Theta
	n := s.N()

	v := tree.View(32)
	span := v.Span
	for g := 0; g*span < n; g++ {
		b0, b1 := g*span, min((g+1)*span, n)
		lo, hi := vec.Splat(math.Inf(1)), vec.Splat(math.Inf(-1))
		for b := b0; b < b1; b++ {
			lo, hi = lo.Min(s.Pos(b)), hi.Max(s.Pos(b))
		}
		var want, got soa.List
		o.walk(lo, hi, theta2,
			func(node int) { want.Add(o.comX[node], o.comY[node], o.comZ[node], o.m[node]) },
			func(b int) { want.AddBodies(s.PosX, s.PosY, s.PosZ, s.Mass, b, b+1) })
		v.Fill(&got, s, g, theta2)
		if !sameList(&got, &want) {
			t.Fatalf("%s group at %d: list of %d entries differs from the oracle's %d", at, b0, got.Len(), want.Len())
		}
	}

	acc := s.Clone()
	phi := make([]float64, n)
	tree.Accelerations(r, par.ParUnseq, acc, p, phi)
	for i := 0; i < n; i++ {
		xi := s.Pos(i)
		var ax, ay, az, pot float64
		o.walk(xi, xi, theta2,
			func(node int) {
				grav.Accumulate(o.comX[node]-xi.X, o.comY[node]-xi.Y, o.comZ[node]-xi.Z, o.m[node], p.Eps2(), &ax, &ay, &az, &pot)
			},
			func(b int) {
				if b != i {
					grav.Accumulate(s.PosX[b]-xi.X, s.PosY[b]-xi.Y, s.PosZ[b]-xi.Z, s.Mass[b], p.Eps2(), &ax, &ay, &az, &pot)
				}
			})
		if want := vec.New(p.G*ax, p.G*ay, p.G*az); acc.Acc(i) != want {
			t.Fatalf("%s body %d: acceleration %v, oracle %v", at, i, acc.Acc(i), want)
		}
		if want := -p.G * pot; phi[i] != want {
			t.Fatalf("%s body %d: potential %v, oracle %v", at, i, phi[i], want)
		}
	}
}

func sameList(a, b *soa.List) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.X {
		if a.X[i] != b.X[i] || a.Y[i] != b.Y[i] || a.Z[i] != b.Z[i] || a.M[i] != b.M[i] {
			return false
		}
	}
	return true
}

// A leaf of more than one body is tested like an interior node: two tight
// clusters of four, one leaf each, see each other as one pseudo-particle
// on all three traversals.
func TestBucketLeafTestedLikeInteriorNode(t *testing.T) {
	r := par.NewRuntime(1, par.Dynamic)
	p := grav.Params{G: 1, Eps: 1e-3, Theta: 0.5}
	s := body.NewSystem(8)
	src := rng.New(431)
	for i := 0; i < 8; i++ {
		x := 0.0
		if i >= 4 {
			x = 100
		}
		s.Set(i, src.Range(0.5, 1.5), vec.New(x+src.Range(-0.1, 0.1), src.Range(-0.1, 0.1), src.Range(-0.1, 0.1)), vec.Zero)
	}
	tree := buildTree(t, Config{LeafSize: 4}, s, r)
	if tree.NumLeaves() != 2 || tree.NodeCount(2) != 4 {
		t.Fatalf("want two leaves of four bodies, got %d leaves, %d bodies in the first", tree.NumLeaves(), tree.NodeCount(2))
	}

	var list soa.List
	v := tree.View(4)
	v.Fill(&list, s, 0, p.Theta*p.Theta)
	if list.Len() != 5 {
		t.Errorf("group list has %d entries, want 4 bodies + 1 pseudo-particle", list.Len())
	}

	// Reference: exact terms within the own leaf, the other leaf's monopole.
	acc, phi := s.Clone(), make([]float64, 8)
	tree.Accelerations(r, par.ParUnseq, acc, p, phi)
	flat, phiFlat := s.Clone(), make([]float64, 8)
	tree.accelerationsList(r, par.ParUnseq, flat, p, 4, phiFlat)
	for i := 0; i < 8; i++ {
		own, other := 2, 3
		if i >= 4 {
			own, other = 3, 2
		}
		lo, hi := int(tree.nodes[own].Lo), int(tree.nodes[own].Hi)
		var ax, ay, az, pot float64
		xi := s.Pos(i)
		for b := lo; b < hi; b++ {
			if b != i {
				d := s.Pos(b).Sub(xi)
				grav.Accumulate(d.X, d.Y, d.Z, s.Mass[b], p.Eps2(), &ax, &ay, &az, &pot)
			}
		}
		nd := tree.nodes[other]
		d := vec.New(nd.X, nd.Y, nd.Z).Sub(xi)
		grav.Accumulate(d.X, d.Y, d.Z, nd.M, p.Eps2(), &ax, &ay, &az, &pot)
		want := -p.G * pot
		ref := vec.New(ax, ay, az)
		for name, got := range map[string]vec.V3{"per-body": acc.Acc(i), "list": flat.Acc(i)} {
			if got.Sub(ref).Norm() > 1e-12*ref.Norm() {
				t.Errorf("%s body %d: %v, want monopole of the far leaf %v", name, i, got, ref)
			}
		}
		for name, got := range map[string]float64{"per-body": phi[i], "list": phiFlat[i]} {
			if math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Errorf("%s potential body %d: %v, want %v", name, i, got, want)
			}
		}
	}
}

func TestGroupedEmptyAndDefaults(t *testing.T) {
	r := par.NewRuntime(2, par.Dynamic)
	empty := randomSystem(0, 413)
	buildTree(t, Config{}, empty, r).accelerationsList(r, par.ParUnseq, empty, grav.DefaultParams(), 0, nil)

	// A non-positive group size selects the default of 32.
	s := randomSystem(200, 417)
	tree := buildTree(t, Config{}, s, r)
	want := s.Clone()
	tree.accelerationsList(r, par.ParUnseq, want, grav.DefaultParams(), 32, nil)
	tree.accelerationsList(r, par.ParUnseq, s, grav.DefaultParams(), 0, nil)
	for i := 0; i < s.N(); i++ {
		if s.Acc(i) != want.Acc(i) {
			t.Fatalf("body %d: group size 0 gave %v, 32 gave %v", i, s.Acc(i), want.Acc(i))
		}
	}
}

// positionGroupList is the group walk as it was before groups were subtrees:
// the group is any body range [b0, b1), its box a min/max over the
// bodies' positions, and its own bodies are reached leaf by leaf. It is
// the oracle of the subtree walk.
func positionGroupList(t *Tree, list *soa.List, s *body.System, b0, b1 int, theta2 float64) {
	n := s.N()
	numLeaves := t.numLeaves
	leafSize := t.cfg.LeafSize
	useBoxDist := t.cfg.Criterion == BoxDistance
	nodes := t.nodes
	posX, posY, posZ, mass := s.PosX, s.PosY, s.PosZ, s.Mass

	gMinX, gMinY, gMinZ := math.Inf(1), math.Inf(1), math.Inf(1)
	gMaxX, gMaxY, gMaxZ := math.Inf(-1), math.Inf(-1), math.Inf(-1)
	for b := b0; b < b1; b++ {
		gMinX = math.Min(gMinX, posX[b])
		gMinY = math.Min(gMinY, posY[b])
		gMinZ = math.Min(gMinZ, posZ[b])
		gMaxX = math.Max(gMaxX, posX[b])
		gMaxY = math.Max(gMaxY, posY[b])
		gMaxZ = math.Max(gMaxZ, posZ[b])
	}
	pointDist2 := func(x, y, z float64) float64 {
		var d2 float64
		if v := gMinX - x; v > 0 {
			d2 += v * v
		} else if v := x - gMaxX; v > 0 {
			d2 += v * v
		}
		if v := gMinY - y; v > 0 {
			d2 += v * v
		} else if v := y - gMaxY; v > 0 {
			d2 += v * v
		}
		if v := gMinZ - z; v > 0 {
			d2 += v * v
		} else if v := z - gMaxZ; v > 0 {
			d2 += v * v
		}
		return d2
	}
	boxDist2 := func(i int) float64 {
		var d2 float64
		if v := t.boxes.MinX[i] - gMaxX; v > 0 {
			d2 += v * v
		} else if v := gMinX - t.boxes.MaxX[i]; v > 0 {
			d2 += v * v
		}
		if v := t.boxes.MinY[i] - gMaxY; v > 0 {
			d2 += v * v
		} else if v := gMinY - t.boxes.MaxY[i]; v > 0 {
			d2 += v * v
		}
		if v := t.boxes.MinZ[i] - gMaxZ; v > 0 {
			d2 += v * v
		} else if v := gMinZ - t.boxes.MaxZ[i]; v > 0 {
			d2 += v * v
		}
		return d2
	}

	node := 1
	for node != 0 {
		nd := &nodes[node]
		if nd.Empty() {
			node = skipNext(node)
			continue
		}
		leaf := node >= numLeaves
		var lo, hi int
		if leaf {
			lo = (node - numLeaves) * leafSize
			hi = min(lo+leafSize, n)
		}
		if !leaf || hi-lo > 1 {
			var crit2 float64
			if useBoxDist {
				crit2 = boxDist2(node)
			} else {
				crit2 = pointDist2(nd.X, nd.Y, nd.Z)
			}
			if nd.Size*nd.Size < theta2*crit2 {
				list.Add(nd.X, nd.Y, nd.Z, nd.M)
				node = skipNext(node)
				continue
			}
			if !leaf {
				node = 2 * node
				continue
			}
		}
		list.AddBodies(posX, posY, posZ, mass, lo, hi)
		node = skipNext(node)
	}
}

// A walk group is one heap subtree, whose bodies enter the list as one
// range when the walk reaches its node. That may not change a list —
// against the position-pass walk over the same bodies, at every leaf
// size, at the default group size and at one that is not a power-of-two
// number of leaves, under both criteria, fresh and after three refits.
func TestSubtreeGroupsMatchPositionGroups(t *testing.T) {
	r := par.NewRuntime(0, par.Dynamic)
	theta2 := 0.6 * 0.6
	input := workload.GalaxyCollision(3000, 13)
	for _, leafSize := range []int{1, 2, 4, 16} {
		for _, groupBodies := range []int{0, 48} {
			for _, crit := range criteria {
				for _, stale := range []bool{false, true} {
					s := input.Clone()
					tree := buildTree(t, Config{LeafSize: leafSize, Criterion: crit, GroupBodies: groupBodies}, s, r)
					if stale {
						staleOrder(tree, r, s)
					}
					v := tree.View(groupBodies)
					span := v.Span
					if want := max(groupBodies, 32); span < want || span >= 2*want {
						t.Fatalf("leaf=%d group=%d: span %d bodies, want the next power-of-two number of leaves", leafSize, groupBodies, span)
					}
					n := s.N()
					for g := 0; g*span < n; g++ {
						b0, b1 := g*span, min((g+1)*span, n)
						node := int(v.GroupNode) + g
						if lo, hi := int(tree.nodes[node].Lo), int(tree.nodes[node].Hi); lo != b0 || hi != b1 {
							t.Fatalf("leaf=%d group=%d: group %d is bodies [%d,%d), node %d holds [%d,%d)",
								leafSize, groupBodies, g, b0, b1, node, lo, hi)
						}
						var want, got soa.List
						positionGroupList(tree, &want, s, b0, b1, theta2)
						v.Fill(&got, s, g, theta2)
						if !sameList(&got, &want) {
							t.Fatalf("leaf=%d group=%d %v stale=%v group %d: list of %d entries, position walk %d",
								leafSize, groupBodies, crit, stale, g, got.Len(), want.Len())
						}
					}
				}
			}
		}
	}
}

// Up to allpairs.DirectMaxN bodies AccelerationsList is the pairwise sum,
// bit for bit; one body more and it is the walk again.
func TestAccelerationsListDirectUpToCutoff(t *testing.T) {
	r := par.NewRuntime(0, par.Dynamic)
	p := grav.Params{G: 1, Eps: 1e-3, Theta: 0.8}
	for _, n := range []int{allpairs.DirectMaxN, allpairs.DirectMaxN + 1} {
		s := workload.Plummer(n, 19)
		tree := buildTree(t, Config{}, s, r)
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
