package octree

import (
	"sync/atomic"

	"nbody/internal/atomicx"
	"nbody/internal/body"
	"nbody/internal/par"
)

// ComputeMoments performs the paper's CALCULATEMULTIPOLES step (Figure 2):
// a wait-free parallel tree reduction computing each node's total mass and
// center of mass from the leaves up.
//
// One thread is scheduled per allocated node; threads whose node is not a
// leaf exit immediately, keeping the useful parallelism O(N). Each leaf
// thread accumulates its moments onto the parent and increments the
// parent's arrival counter; the last of the 8 children to arrive continues
// upward with the parent, all others exit. Atomic read-modify-write
// operations are vectorization-unsafe, so the loop requires the par policy.
//
// Two accumulation variants are provided (an ablation the benchmarks
// compare):
//
//   - scatter (paper-faithful, default): every thread atomically fetch_adds
//     its node's moments into the parent's accumulators;
//   - gather (Config.GatherMoments): only the last-arriving thread touches
//     the parent, summing its 8 children with plain loads. Fewer atomics,
//     but the reads are strided.
//
// A key-sorted tree (Config.KeySorted) knows its levels and needs
// neither: see gatherMoments.
func (t *Tree) ComputeMoments(r *par.Runtime, s *body.System) {
	if t.cfg.KeySorted {
		t.gatherMoments(r, s)
		return
	}
	nodes := t.NumNodes()

	// Reset accumulators and arrival counters for the allocated range.
	r.ForGrain(par.ParUnseq, nodes, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t.m[i] = 0
			t.comX[i], t.comY[i], t.comZ[i] = 0, 0, 0
			t.counter[i] = 0
		}
	})

	mass := s.Mass
	posX, posY, posZ := s.PosX, s.PosY, s.PosZ

	r.For(par.Par, nodes, func(i int) {
		tok := t.child[int32(i)]
		if tok >= 0 {
			return // internal node: handled by its last-arriving child
		}

		// Leaf moments: Σm and Σm·x over the leaf's chain (usually a
		// single body, or none).
		var lm, lx, ly, lz float64
		for b := leafBody(tok); b >= 0; b = t.next[b] {
			mb := mass[b]
			lm += mb
			lx += mb * posX[b]
			ly += mb * posY[b]
			lz += mb * posZ[b]
		}
		node := int32(i)
		t.m[node] = lm
		t.comX[node], t.comY[node], t.comZ[node] = lx, ly, lz

		// Climb: accumulate into the parent; the last arrival carries on.
		for node != 0 {
			p := t.parentOf(node)
			if t.cfg.GatherMoments {
				// Arrival counter first; only the final thread reads
				// the (now complete) children and writes the parent.
				if atomic.AddInt32(&t.counter[p], 1) != 8 {
					return
				}
				first := t.child[p]
				var gm, gx, gy, gz float64
				for c := first; c < first+8; c++ {
					gm += t.m[c]
					gx += t.comX[c]
					gy += t.comY[c]
					gz += t.comZ[c]
				}
				t.m[p] = gm
				t.comX[p], t.comY[p], t.comZ[p] = gx, gy, gz
			} else {
				// Scatter the node's moments with relaxed atomic adds,
				// then signal arrival; the fetch_add returning 7 marks
				// the reduction at p complete (paper's scheme).
				if m := t.m[node]; m != 0 {
					atomicx.AddFloat64(&t.m[p], m)
					atomicx.AddFloat64(&t.comX[p], t.comX[node])
					atomicx.AddFloat64(&t.comY[p], t.comY[node])
					atomicx.AddFloat64(&t.comZ[p], t.comZ[node])
				}
				if atomic.AddInt32(&t.counter[p], 1) != 8 {
					return
				}
			}
			node = p
		}
	})

	t.normalizeMoments(r)
}

// normalizeMoments converts the mass-weighted position sums the reduction
// leaves in every node to centers of mass.
func (t *Tree) normalizeMoments(r *par.Runtime) {
	r.ForGrain(par.ParUnseq, t.NumNodes(), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m := t.m[i]
			if m == 0 {
				continue
			}
			t.comX[i] /= m
			t.comY[i] /= m
			t.comZ[i] /= m
		}
	})
}

// leafBody returns the first body of a leaf token's chain, or -1 for an
// empty leaf.
func leafBody(tok int32) int32 {
	if tok == TokenEmpty || tok == TokenLocked {
		return -1
	}
	return tokenBody(tok)
}

// TotalMass returns the root node's mass after ComputeMoments — the total
// mass of the system, a conservation diagnostic.
func (t *Tree) TotalMass() float64 { return t.m[0] }

// CenterOfMass returns the root node's center of mass after ComputeMoments.
func (t *Tree) CenterOfMass() (x, y, z float64) { return t.comX[0], t.comY[0], t.comZ[0] }
