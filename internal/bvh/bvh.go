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
// without revisiting interior nodes.
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
// Per heap slot the tree keeps one walk.Node record — centre of mass, mass,
// opening size, body range, first child and skip successor — which the flat
// walk (package walk) reads as the octree's, and the per-body walk reads
// for its moments and size. The boxes are kept apart as cold arrays, read
// only by the build's reduction, the BoxDistance criterion, NodeBox and
// Stats.
package bvh

import (
	"fmt"
	"math"

	"nbody/internal/body"
	"nbody/internal/bounds"
	"nbody/internal/par"
	"nbody/internal/sfc"
	"nbody/internal/vec"
	"nbody/internal/walk"
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
	// range of one heap subtree. The default (0) selects walk.GroupSize.
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
	nodes []walk.Node
	boxes walk.Boxes

	// Sort scratch.
	keys []uint64
	perm []int32
}

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

// Sort implements HILBERTSORT (Algorithm 7, sfc.SortBodies) over the
// bounding cube of box: it computes each body's curve index, sorts the
// (key, body) pairs and applies the permutation to the body arrays. Exposed
// separately from Build so the harness can time the sort phase on its own
// (Figure 8).
func (t *Tree) Sort(r *par.Runtime, pol par.Policy, s *body.System, box bounds.AABB) {
	n := s.N()
	if len(t.keys) < n {
		t.keys = make([]uint64, n)
		t.perm = make([]int32, n)
	}
	sfc.SortBodies(r, pol, s, box.Cube(), t.keys[:n], t.perm[:n])
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
		t.nodes = make([]walk.Node, nodes)
		bx := &t.boxes
		for _, a := range []*[]float64{&bx.MinX, &bx.MinY, &bx.MinZ, &bx.MaxX, &bx.MaxY, &bx.MaxZ} {
			*a = make([]float64, nodes)
		}
	}
	t.levels = levels

	mass := s.Mass
	posX, posY, posZ := s.PosX, s.PosY, s.PosZ
	bx := &t.boxes

	// Leaf pass: leaf j (heap index numLeaves + j) covers bodies
	// [j·leafSize, min(n, (j+1)·leafSize)).
	r.ForGrain(pol, numLeaves, 0, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			node := numLeaves + j
			b0 := min(j*leafSize, n)
			b1 := min(b0+leafSize, n)
			if b0 == b1 {
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
			bx.MinX[node], bx.MinY[node], bx.MinZ[node] = bmin.X, bmin.Y, bmin.Z
			bx.MaxX[node], bx.MaxY[node], bx.MaxZ[node] = bmax.X, bmax.Y, bmax.Z
			nd := walk.Node{M: lm, Size: longestEdge(bmax.X-bmin.X, bmax.Y-bmin.Y, bmax.Z-bmin.Z), Lo: int32(b0), Hi: int32(b1)}
			if lm > 0 {
				nd.X, nd.Y, nd.Z = lx/lm, ly/lm, lz/lm
			} else {
				c := bmin.Add(bmax).Scale(0.5)
				nd.X, nd.Y, nd.Z = c.X, c.Y, c.Z
			}
			t.store(node, nd)
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
				case a.Empty() && b.Empty():
					t.setEmpty(node)
					continue
				case b.Empty():
					t.copyNode(node, l)
					continue
				case a.Empty():
					t.copyNode(node, rgt)
					continue
				}
				minX := math.Min(bx.MinX[l], bx.MinX[rgt])
				minY := math.Min(bx.MinY[l], bx.MinY[rgt])
				minZ := math.Min(bx.MinZ[l], bx.MinZ[rgt])
				maxX := math.Max(bx.MaxX[l], bx.MaxX[rgt])
				maxY := math.Max(bx.MaxY[l], bx.MaxY[rgt])
				maxZ := math.Max(bx.MaxZ[l], bx.MaxZ[rgt])
				bx.MinX[node], bx.MinY[node], bx.MinZ[node] = minX, minY, minZ
				bx.MaxX[node], bx.MaxY[node], bx.MaxZ[node] = maxX, maxY, maxZ
				lm := a.M + b.M
				nd := walk.Node{M: lm, Size: longestEdge(maxX-minX, maxY-minY, maxZ-minZ), Lo: a.Lo, Hi: b.Hi}
				if lm > 0 {
					nd.X = (a.M*a.X + b.M*b.X) / lm
					nd.Y = (a.M*a.Y + b.M*b.Y) / lm
					nd.Z = (a.M*a.Z + b.M*b.Z) / lm
				} else {
					nd.X = 0.5 * (minX + maxX)
					nd.Y = 0.5 * (minY + maxY)
					nd.Z = 0.5 * (minZ + maxZ)
				}
				t.store(node, nd)
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

// store writes nd, with node's first child and skip successor, to heap
// slot node.
func (t *Tree) store(node int, nd walk.Node) {
	nd.Down, nd.Next = -1, int32(skipNext(node))
	if node < t.numLeaves {
		nd.Down = int32(2 * node)
	}
	if nd.Next == 0 {
		nd.Next = -1
	}
	t.nodes[node] = nd
}

func (t *Tree) setEmpty(node int) {
	bx := &t.boxes
	bx.MinX[node], bx.MinY[node], bx.MinZ[node] = math.Inf(1), math.Inf(1), math.Inf(1)
	bx.MaxX[node], bx.MaxY[node], bx.MaxZ[node] = math.Inf(-1), math.Inf(-1), math.Inf(-1)
	t.store(node, walk.Node{Size: -1, Lo: int32(t.n), Hi: int32(t.n)})
}

// copyNode makes dst, whose other child is empty, a copy of its child src:
// src's body range is dst's, because bodies fill the leaves from the left.
func (t *Tree) copyNode(dst, src int) {
	bx := &t.boxes
	bx.MinX[dst], bx.MinY[dst], bx.MinZ[dst] = bx.MinX[src], bx.MinY[src], bx.MinZ[src]
	bx.MaxX[dst], bx.MaxY[dst], bx.MaxZ[dst] = bx.MaxX[src], bx.MaxY[src], bx.MaxZ[src]
	t.store(dst, t.nodes[src])
}

// TotalMass returns the root's mass after Build.
func (t *Tree) TotalMass() float64 { return t.nodes[1].M }

// CenterOfMass returns the root's center of mass after Build.
func (t *Tree) CenterOfMass() (x, y, z float64) { return t.nodes[1].X, t.nodes[1].Y, t.nodes[1].Z }

// NodeBox returns node i's bounding box (heap index). Exposed for tests.
func (t *Tree) NodeBox(i int) bounds.AABB {
	bx := &t.boxes
	return bounds.AABB{
		Min: vec.V3{X: bx.MinX[i], Y: bx.MinY[i], Z: bx.MinZ[i]},
		Max: vec.V3{X: bx.MaxX[i], Y: bx.MaxY[i], Z: bx.MaxZ[i]},
	}
}

// NodeCount returns the number of bodies under node i. Exposed for tests.
func (t *Tree) NodeCount(i int) int { return int(t.nodes[i].Hi - t.nodes[i].Lo) }

// LeafRange returns the body index range [lo, hi) covered by leaf j in
// [0, NumLeaves). Exposed for tests.
func (t *Tree) LeafRange(j int) (lo, hi int) {
	nd := &t.nodes[t.numLeaves+j]
	return int(nd.Lo), int(nd.Hi)
}
