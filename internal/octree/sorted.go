package octree

import (
	"fmt"
	"math/bits"

	"nbody/internal/body"
	"nbody/internal/bounds"
	"nbody/internal/par"
	"nbody/internal/sfc"
	"nbody/internal/walk"
)

// leafBucket is the largest number of bodies the key-sorted build leaves in
// one leaf above the key depth cap. Measured over {4, 8, 16} on the two
// octree workloads of the benchmark (EXPERIMENTS.md, "The key-sorted build
// verdict").
const leafBucket = 16

// span is one entry of the build frontier: an internal node and the range
// of (sorted) bodies its cell holds.
type span struct{ node, lo, hi int32 }

// resize returns s with length n. When it has to reallocate it leaves a
// quarter of headroom, so a tree that grows a little every step does not
// reallocate every step; the contents are not kept.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]T, n, n+n/4)
}

// sharedDigits returns how many leading octal digits (tree levels) two
// 63-bit curve keys have in common, sfc.MaxOrder3D if they are equal.
func sharedDigits(a, b uint64) int { return (bits.LeadingZeros64(a^b) - 1) / 3 }

// countGroups returns the number of sibling groups the tree over the sorted
// keys has: one per internal node, that is per run of more than bucket keys
// that agree on their first d digits, for every depth d < maxLevels. Key i
// starts such a run at each depth beyond the digits it shares with its
// predecessor, up to the digits it still shares with the key bucket places
// on — so the pool is sized by one pass of subtractions, before any node is
// written.
func countGroups(r *par.Runtime, keys []uint64, bucket, maxLevels int) int {
	return par.ReduceRanges(r, par.ParUnseq, len(keys)-bucket, 0,
		func(a, b int) int { return a + b },
		func(acc, lo, hi int) int {
			for i := lo; i < hi; i++ {
				prev := -1 // the root's run starts at key 0, depth 0
				if i > 0 {
					prev = sharedDigits(keys[i-1], keys[i])
				}
				if d := min(sharedDigits(keys[i], keys[i+bucket]), maxLevels-1); d > prev {
					acc += d - prev
				}
			}
			return acc
		})
}

// buildSorted constructs the tree from the bodies' sorted Hilbert keys by
// counting instead of inserting (Cornerstone; Bédorf et al.'s sparse
// octree): a cell at depth d is a run of keys sharing their first d octal
// digits, so its eight children are the eight digit boundaries inside the
// run, found by binary search. Child slot k of a node holds the cell whose
// digit is k: the children are in curve order, not octant order. The pass
// is level-synchronous. Every entry of the frontier is an internal node and
// gets the next sibling group, in frontier order; a child holding more than
// t.bucket bodies above the depth cap joins the next frontier, whose slots
// come from an exclusive scan of the per-entry counts. The pool is sized
// from countGroups up front, so there is nothing to overflow and no pass is
// ever redone, and nothing depends on the schedule, so the tree is the same
// for any worker count.
//
// Groups come out in breadth-first order (t.levels records where each depth
// starts), which keeps child > parent for the stackless traversals and lets
// gatherMoments reduce a whole level at a time. The pass that creates a
// node writes its record's body range [Lo, Hi), Down and Next (slots 0–6
// are followed by their next sibling, slot 7 by its parent's successor). A
// leaf is also chained through next like a max-depth leaf of the
// concurrent build, so the per-body traversals, Stats and CheckInvariants
// read both trees alike.
func (t *Tree) buildSorted(r *par.Runtime, s *body.System, cube bounds.AABB) {
	n := int32(s.N())
	var keys []uint64
	if n > 1 {
		t.keys, t.sortPerm = resize(t.keys, int(n)), resize(t.sortPerm, int(n))
		sfc.SortBodies(r, par.Par, s, cube, t.keys, t.sortPerm)
		keys = t.keys
	}
	maxLevels := min(t.cfg.MaxDepth, sfc.MaxOrder3D)
	bucket := int32(t.bucket)

	groups := countGroups(r, keys, t.bucket, maxLevels)
	t.nGroups.Store(int32(groups))
	nodes := 1 + 8*groups
	t.child, t.nodes = resize(t.child, nodes), resize(t.nodes, nodes)
	t.parent, t.depth = resize(t.parent, groups), resize(t.depth, groups)
	child, recs, parent, depths := t.child, t.nodes, t.parent, t.depth

	recs[0] = walk.Node{Hi: n, Down: -1, Next: -1}
	t.levels = append(t.levels[:0], 0)
	front := t.front[:0]
	switch {
	case n == 0:
		child[0] = TokenEmpty
	case groups == 0:
		t.setLeaf(0, 0, n)
	default:
		front = append(front, span{0, 0, n})
	}

	built := 0
	for depth := 1; len(front) > 0; depth++ {
		base, f := built, len(front)
		built += f
		t.levels = append(t.levels, int32(built))
		t.slots = resize(t.slots, f)
		slots, cur := t.slots, front
		split := depth < maxLevels // may this level's children be internal?
		shift := uint(3 * (sfc.MaxOrder3D - depth))

		r.ForGrain(par.ParUnseq, f, 0, func(a, b int) {
			for i := a; i < b; i++ {
				e := cur[i]
				first := int32(1 + 8*(base+i))
				child[e.node], recs[e.node].Down = first, first
				after := recs[e.node].Next
				parent[base+i], depths[base+i] = e.node, uint8(depth)
				internal := int32(0)
				lo := e.lo
				for oct := int32(0); oct < 8; oct++ {
					c := first + oct
					hi, next := e.hi, after
					if oct < 7 {
						hi, next = digitEnd(keys, lo, e.hi, shift, uint64(oct)), c+1
					}
					recs[c] = walk.Node{Lo: lo, Hi: hi, Down: -1, Next: next}
					switch {
					case hi == lo:
						child[c] = TokenEmpty
					case split && hi-lo > bucket:
						// Claimed by the next level; until then the
						// node carries its range like a leaf.
						child[c] = bodyToken(lo)
						internal++
					default:
						t.setLeaf(c, lo, hi)
					}
					lo = hi
				}
				slots[i] = internal
			}
		})

		total := par.ExclusiveScan(r, par.Par, slots)
		t.back = resize(t.back, int(total))
		nxt := t.back
		if total > 0 {
			r.ForGrain(par.ParUnseq, f, 0, func(a, b int) {
				for i := a; i < b; i++ {
					at := slots[i]
					first := int32(1 + 8*(base+i))
					for c := first; c < first+8; c++ {
						if nd := &recs[c]; nd.Hi-nd.Lo > bucket {
							nxt[at] = span{c, nd.Lo, nd.Hi}
							at++
						}
					}
				}
			})
		}
		t.front, t.back = nxt, cur
		front = nxt
	}
	if built != groups {
		panic(fmt.Sprintf("octree: sorted build wrote %d groups, counted %d", built, groups))
	}
}

// setLeaf makes node c the leaf of the non-empty body range [lo, hi).
func (t *Tree) setLeaf(c, lo, hi int32) {
	t.child[c] = bodyToken(lo)
	for b := lo; b < hi-1; b++ {
		t.next[b] = b + 1
	}
	t.next[hi-1] = -1
}

// digitEnd returns the first index in [lo, hi) of the sorted keys whose
// octal digit at shift exceeds oct (hi if none does).
func digitEnd(keys []uint64, lo, hi int32, shift uint, oct uint64) int32 {
	for lo < hi {
		mid := lo + (hi-lo)/2
		if (keys[mid]>>shift)&7 <= oct {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// gatherMoments is ComputeMoments on a key-sorted tree: one pass per level,
// deepest first, in which every node sums either its leaf's body range or
// its eight children in slot order. Each sum is taken by one goroutine in
// a fixed order and nothing is accumulated atomically, so the moments — and
// the accelerations computed from them — are bit-identical for any worker
// count and schedule. The ranges are body indices, so the pass is equally
// valid after a drift that kept the topology (tree reuse).
func (t *Tree) gatherMoments(r *par.Runtime, s *body.System) {
	for d := len(t.levels) - 1; d > 0; d-- {
		g0 := int(t.levels[d-1])
		r.ForGrain(par.ParUnseq, int(t.levels[d])-g0, 0, func(lo, hi int) {
			for c := int32(1 + 8*(g0+lo)); c < int32(1+8*(g0+hi)); c++ {
				t.gatherNode(c, s)
			}
		})
	}
	t.gatherNode(0, s)
	t.normalizeMoments(r)
}

// gatherNode stores the raw sums Σm and Σm·x of node c, whose children
// already hold theirs.
func (t *Tree) gatherNode(c int32, s *body.System) {
	nd := &t.nodes[c]
	var m, x, y, z float64
	if nd.Down >= 0 {
		for k := nd.Down; k < nd.Down+8; k++ {
			ch := &t.nodes[k]
			m += ch.M
			x += ch.X
			y += ch.Y
			z += ch.Z
		}
	} else {
		for b := nd.Lo; b < nd.Hi; b++ {
			mb := s.Mass[b]
			m += mb
			x += mb * s.PosX[b]
			y += mb * s.PosY[b]
			z += mb * s.PosZ[b]
		}
	}
	nd.M, nd.X, nd.Y, nd.Z = m, x, y, z
}
