// Package bvh implements the paper's Hilbert-sorted Bounding Volume
// Hierarchy strategy (Section IV-B): bodies are sorted along a Hilbert
// space-filling curve, then a *balanced* binary BVH is built bottom-up,
// level by level, computing bounding boxes and multipole moments in the
// same sweep (BUILDTREEANDMULTIPOLES). Every step needs only weakly
// parallel forward progress, so the whole strategy runs under par_unseq —
// this is the variant that works on GPUs without Independent Thread
// Scheduling, and the reason the paper develops it.
//
// The tree is stored as an implicit binary heap: node 1 is the root, node i
// has children 2i and 2i+1, and the leaves occupy [numLeaves, 2·numLeaves).
// The number of levels, nodes per level, and total nodes are all
// predetermined by N, so no connectivity needs to be stored, and the
// structure acts as a skip list during traversal: finishing the subtree of
// node i continues at i+1 (if i is a left child) or at the first
// right-sibling found while climbing — a jump across multiple levels
// without revisiting interior nodes. A node's body count is not stored
// either: its leaves are a contiguous run, so its body range follows from
// its index.
//
// Because bodies are permuted into curve order, each leaf covers a
// contiguous body range, and sibling subtrees cover adjacent runs of the
// curve. A leaf holds up to Config.LeafSize bodies (4 by default; the
// paper's heap has one body per leaf), and the flat kernel's walk groups
// are whole subtrees, so a group's box is a node's box. Node bounding
// boxes may overlap and be elongated (Figure 4), which is why the opening
// criterion measures the node's *box* extent — the paper's note that θ
// means something slightly different here than in the octree.
//
// Per heap slot the tree keeps one packed record of what a walk reads —
// centre of mass, mass and opening size — so a CenterDistance visit loads
// one 40-byte record. The boxes are kept apart as cold arrays, read only by
// the build's reduction, the BoxDistance criterion, NodeBox and Stats.
package bvh

import (
	"fmt"
	"math"

	"nbody/internal/body"
	"nbody/internal/bounds"
	"nbody/internal/par"
	"nbody/internal/sfc"
	"nbody/internal/vec"
)

// Criterion selects how the traversal decides whether a node is far enough
// to approximate — the knob behind the paper's observation that θ means
// something different for the BVH than for the octree, because BVH boxes
// may be elongated and overlap.
type Criterion uint8

const (
	// CenterDistance (default, matching the paper): approximate when
	// boxExtent < θ·|com − body|. Cheap, but for elongated boxes the
	// center of mass can be far from the nearest box face.
	CenterDistance Criterion = iota
	// BoxDistance: approximate when boxExtent < θ·dist(body, box), the
	// conservative variant measuring the true distance to the box.
	// Strictly more accurate for the same θ, at the cost of the
	// box-distance computation per visited node.
	BoxDistance
)

// String implements fmt.Stringer.
func (c Criterion) String() string {
	switch c {
	case CenterDistance:
		return "center-distance"
	case BoxDistance:
		return "box-distance"
	}
	return fmt.Sprintf("Criterion(%d)", uint8(c))
}

// Config selects the BVH variants exercised by the ablation benchmarks.
type Config struct {
	// LeafSize is the number of bodies per leaf. The default (0) selects
	// 4: the heap has a quarter of the slots of the paper's one body per
	// leaf (LeafSize 1), and the step is faster at the same accuracy
	// (EXPERIMENTS.md, "The bucketed BVH verdict"). A leaf of more than
	// one body is tested by the opening criterion like an interior node.
	LeafSize int
	// Criterion selects the opening test (default CenterDistance, the
	// paper's).
	Criterion Criterion
	// GroupBodies is the target number of bodies sharing one traversal in
	// the flat interaction-list kernel (AccelerationsList), rounded up to
	// a power-of-two number of whole leaves so that a group is the body
	// range of one heap subtree. The default (0) selects 32.
	GroupBodies int
}

// Tree is a Hilbert-sorted BVH. A Tree is reusable across timesteps; Build
// resets and repopulates it. The zero value is not usable; call New.
type Tree struct {
	cfg Config

	numLeaves int // power of two
	levels    int // numLeaves == 1 << (levels-1)
	n         int // bodies covered by the last Build

	// Per-node data in heap layout, indexed 1..2·numLeaves-1 (index 0
	// unused): the hot record every walk reads, and the cold boxes.
	nodes            []record
	minX, minY, minZ []float64
	maxX, maxY, maxZ []float64

	// Sort scratch.
	keys []uint64
	perm []int32
}

// record is what a traversal reads at a heap slot.
type record struct {
	x, y, z float64 // center of mass
	m       float64
	// size is the opening size, the longest edge of the node's box. It is
	// negative exactly when the slot covers no bodies.
	size float64
}

func (nd *record) empty() bool { return nd.size < 0 }

// New returns an empty tree with the given configuration.
func New(cfg Config) *Tree {
	if cfg.LeafSize <= 0 {
		cfg.LeafSize = 4
	}
	return &Tree{cfg: cfg}
}

// Config returns the tree's configuration.
func (t *Tree) Config() Config { return t.cfg }

// NumLeaves returns the number of leaf slots (a power of two) after Build.
func (t *Tree) NumLeaves() int { return t.numLeaves }

// Levels returns the number of tree levels after Build (1 for a single
// leaf-root).
func (t *Tree) Levels() int { return t.levels }

// NumNodes returns the number of heap slots after Build (2·NumLeaves,
// including the unused slot 0).
func (t *Tree) NumNodes() int { return 2 * t.numLeaves }

// Build runs the full strategy of Algorithm 6 for the bodies of s with
// bounding box `box`: HILBERTSORT (which permutes the bodies of s into
// curve order — callers that track body identity must account for this)
// followed by BUILDTREEANDMULTIPOLES. All phases use the pol execution
// policy; the paper runs them under par_unseq.
func (t *Tree) Build(r *par.Runtime, pol par.Policy, s *body.System, box bounds.AABB) {
	t.Sort(r, pol, s, box)
	t.buildLevels(r, pol, s)
}

// BuildNoSort rebuilds boxes and moments for the bodies in their current
// order, skipping the sort. This implements the tree-reuse approximation of
// Iwasawa et al. discussed in the paper's related work: the curve order
// (and hence the leaf assignment) goes stale as bodies move, but boxes and
// moments stay exact, so the force calculation remains correct — only leaf
// compactness degrades until the next full Build.
func (t *Tree) BuildNoSort(r *par.Runtime, pol par.Policy, s *body.System) {
	t.buildLevels(r, pol, s)
}

// Sort implements HILBERTSORT (Algorithm 7): grid the bodies on the
// coarsest Cartesian grid covering box, compute each body's curve index
// (precomputed once, as the paper notes), sort a permutation by key, and
// apply it to the body arrays. Exposed separately from Build so the
// harness can time the sort phase on its own (Figure 8).
func (t *Tree) Sort(r *par.Runtime, pol par.Policy, s *body.System, box bounds.AABB) {
	n := s.N()
	if len(t.keys) < n {
		t.keys = make([]uint64, n)
		t.perm = make([]int32, n)
	}
	keys := t.keys[:n]
	perm := t.perm[:n]

	// 2^21 cells per side, the finest grid a 64-bit key resolves.
	const order = sfc.MaxOrder3D
	side := float64(uint64(1) << order)
	cube := box.Cube()
	origin := cube.Min
	ext := cube.MaxExtent()
	inv := 0.0
	if ext > 0 {
		inv = side / ext
	}
	maxCoord := uint32(1)<<order - 1

	posX, posY, posZ := s.PosX, s.PosY, s.PosZ
	r.ForGrain(pol, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			gx := sfc.GridCoord(posX[i], origin.X, inv, maxCoord)
			gy := sfc.GridCoord(posY[i], origin.Y, inv, maxCoord)
			gz := sfc.GridCoord(posZ[i], origin.Z, inv, maxCoord)
			keys[i] = sfc.HilbertIndex3D(gx, gy, gz, order)
			perm[i] = int32(i)
		}
	})

	par.SortByKeys(r, pol, keys, perm)
	s.Permute(r, pol, perm)
}

// buildLevels implements BUILDTREEANDMULTIPOLES: construct the leaf nodes
// from (curve-ordered) bodies, then reduce pairs of children level by level
// up to the root. The reductions at each node of a level are independent,
// so each level is a single par_unseq Parallel For (with an implicit
// barrier between levels, matching the paper).
func (t *Tree) buildLevels(r *par.Runtime, pol par.Policy, s *body.System) {
	n := s.N()
	t.n = n
	leafSize := t.cfg.LeafSize

	// Predetermine the balanced shape.
	wantLeaves := (n + leafSize - 1) / leafSize
	numLeaves := 1
	levels := 1
	for numLeaves < wantLeaves {
		numLeaves *= 2
		levels++
	}
	if t.numLeaves != numLeaves || len(t.nodes) == 0 {
		t.numLeaves = numLeaves
		nodes := 2 * numLeaves
		t.nodes = make([]record, nodes)
		t.minX = make([]float64, nodes)
		t.minY = make([]float64, nodes)
		t.minZ = make([]float64, nodes)
		t.maxX = make([]float64, nodes)
		t.maxY = make([]float64, nodes)
		t.maxZ = make([]float64, nodes)
	}
	t.levels = levels

	mass := s.Mass
	posX, posY, posZ := s.PosX, s.PosY, s.PosZ

	// Leaf pass: leaf j (heap index numLeaves + j) covers bodies
	// [j·leafSize, min(n, (j+1)·leafSize)).
	r.ForGrain(pol, numLeaves, 0, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			node := numLeaves + j
			b0 := j * leafSize
			b1 := min(b0+leafSize, n)
			if b0 >= n {
				t.setEmpty(node)
				continue
			}
			bmin := vec.Splat(math.Inf(1))
			bmax := vec.Splat(math.Inf(-1))
			var lm, lx, ly, lz float64
			for b := b0; b < b1; b++ {
				p := vec.V3{X: posX[b], Y: posY[b], Z: posZ[b]}
				bmin = bmin.Min(p)
				bmax = bmax.Max(p)
				lm += mass[b]
				lx += mass[b] * p.X
				ly += mass[b] * p.Y
				lz += mass[b] * p.Z
			}
			t.minX[node], t.minY[node], t.minZ[node] = bmin.X, bmin.Y, bmin.Z
			t.maxX[node], t.maxY[node], t.maxZ[node] = bmax.X, bmax.Y, bmax.Z
			nd := record{m: lm, size: longestEdge(bmax.X-bmin.X, bmax.Y-bmin.Y, bmax.Z-bmin.Z)}
			if lm > 0 {
				nd.x, nd.y, nd.z = lx/lm, ly/lm, lz/lm
			} else {
				c := bmin.Add(bmax).Scale(0.5)
				nd.x, nd.y, nd.z = c.X, c.Y, c.Z
			}
			t.nodes[node] = nd
		}
	})

	// Interior passes, one level at a time toward the root.
	for width := numLeaves / 2; width >= 1; width /= 2 {
		first := width // nodes [width, 2·width) form this level
		r.ForGrain(pol, width, 0, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				node := first + k
				l, rgt := 2*node, 2*node+1
				a, b := &t.nodes[l], &t.nodes[rgt]
				switch {
				case a.empty() && b.empty():
					t.setEmpty(node)
					continue
				case b.empty():
					t.copyNode(node, l)
					continue
				case a.empty():
					t.copyNode(node, rgt)
					continue
				}
				minX := math.Min(t.minX[l], t.minX[rgt])
				minY := math.Min(t.minY[l], t.minY[rgt])
				minZ := math.Min(t.minZ[l], t.minZ[rgt])
				maxX := math.Max(t.maxX[l], t.maxX[rgt])
				maxY := math.Max(t.maxY[l], t.maxY[rgt])
				maxZ := math.Max(t.maxZ[l], t.maxZ[rgt])
				t.minX[node], t.minY[node], t.minZ[node] = minX, minY, minZ
				t.maxX[node], t.maxY[node], t.maxZ[node] = maxX, maxY, maxZ
				lm := a.m + b.m
				nd := record{m: lm, size: longestEdge(maxX-minX, maxY-minY, maxZ-minZ)}
				if lm > 0 {
					nd.x = (a.m*a.x + b.m*b.x) / lm
					nd.y = (a.m*a.y + b.m*b.y) / lm
					nd.z = (a.m*a.z + b.m*b.z) / lm
				} else {
					nd.x = 0.5 * (minX + maxX)
					nd.y = 0.5 * (minY + maxY)
					nd.z = 0.5 * (minZ + maxZ)
				}
				t.nodes[node] = nd
			}
		})
		// The ForGrain return is the level barrier: the next coarser
		// level reads only fully-written children.
	}
}

// longestEdge is the opening size of a box with edges ex, ey, ez.
func longestEdge(ex, ey, ez float64) float64 {
	if ey > ex {
		ex = ey
	}
	if ez > ex {
		ex = ez
	}
	return ex
}

func (t *Tree) setEmpty(node int) {
	t.minX[node], t.minY[node], t.minZ[node] = math.Inf(1), math.Inf(1), math.Inf(1)
	t.maxX[node], t.maxY[node], t.maxZ[node] = math.Inf(-1), math.Inf(-1), math.Inf(-1)
	t.nodes[node] = record{size: -1}
}

func (t *Tree) copyNode(dst, src int) {
	t.minX[dst], t.minY[dst], t.minZ[dst] = t.minX[src], t.minY[src], t.minZ[src]
	t.maxX[dst], t.maxY[dst], t.maxZ[dst] = t.maxX[src], t.maxY[src], t.maxZ[src]
	t.nodes[dst] = t.nodes[src]
}

// TotalMass returns the root's mass after Build.
func (t *Tree) TotalMass() float64 { return t.nodes[1].m }

// CenterOfMass returns the root's center of mass after Build.
func (t *Tree) CenterOfMass() (x, y, z float64) { return t.nodes[1].x, t.nodes[1].y, t.nodes[1].z }

// NodeBox returns node i's bounding box (heap index). Exposed for tests.
func (t *Tree) NodeBox(i int) bounds.AABB {
	return bounds.AABB{
		Min: vec.V3{X: t.minX[i], Y: t.minY[i], Z: t.minZ[i]},
		Max: vec.V3{X: t.maxX[i], Y: t.maxY[i], Z: t.maxZ[i]},
	}
}

// NodeCount returns the number of bodies under node i. Exposed for tests.
func (t *Tree) NodeCount(i int) int {
	lo, hi := t.nodeRange(i)
	return hi - lo
}

// LeafRange returns the body index range [lo, hi) covered by leaf j in
// [0, NumLeaves). Exposed for tests.
func (t *Tree) LeafRange(j int) (lo, hi int) { return t.nodeRange(t.numLeaves + j) }

// nodeRange returns the body range [lo, hi) under heap slot i: the leaves
// [first, end) of its subtree, times the leaf size, clipped to the bodies.
func (t *Tree) nodeRange(i int) (lo, hi int) {
	first, end := i, i+1
	for first < t.numLeaves {
		first, end = 2*first, 2*end
	}
	lo = min((first-t.numLeaves)*t.cfg.LeafSize, t.n)
	hi = min((end-t.numLeaves)*t.cfg.LeafSize, t.n)
	return lo, hi
}
