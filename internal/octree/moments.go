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
// neither: see gatherMoments. Either way the moments land in the node
// records (walk.Node), beside the opening size normalizeMoments writes.
func (t *Tree) ComputeMoments(r *par.Runtime, s *body.System) {
	if t.cfg.KeySorted {
		t.gatherMoments(r, s)
		return
	}
	nodes := t.NumNodes()

	// Reset accumulators and arrival counters for the allocated range.
	r.ForGrain(par.ParUnseq, nodes, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			nd := &t.nodes[i]
			nd.M, nd.X, nd.Y, nd.Z = 0, 0, 0, 0
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
		nd := &t.nodes[node]
		nd.M, nd.X, nd.Y, nd.Z = lm, lx, ly, lz

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
					ch := &t.nodes[c]
					gm += ch.M
					gx += ch.X
					gy += ch.Y
					gz += ch.Z
				}
				pd := &t.nodes[p]
				pd.M, pd.X, pd.Y, pd.Z = gm, gx, gy, gz
			} else {
				// Scatter the node's moments with relaxed atomic adds,
				// then signal arrival; the fetch_add returning 7 marks
				// the reduction at p complete (paper's scheme).
				if nd := &t.nodes[node]; nd.M != 0 {
					pd := &t.nodes[p]
					atomicx.AddFloat64(&pd.M, nd.M)
					atomicx.AddFloat64(&pd.X, nd.X)
					atomicx.AddFloat64(&pd.Y, nd.Y)
					atomicx.AddFloat64(&pd.Z, nd.Z)
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
// leaves in every node to centers of mass, and writes every node's opening
// size: the edge of its cell, rootSize·2⁻ᵈ at depth d, or −1 when the node
// holds no body.
func (t *Tree) normalizeMoments(r *par.Runtime) {
	var sizeAt [256]float64
	sz := 2 * t.rootHalf
	for d := range sizeAt {
		sizeAt[d] = sz
		sz *= 0.5
	}
	r.ForGrain(par.ParUnseq, t.NumNodes(), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			nd := &t.nodes[i]
			nd.Size = -1
			if t.child[i] != TokenEmpty {
				nd.Size = sizeAt[t.depthOf(int32(i))]
			}
			if m := nd.M; m != 0 {
				nd.X /= m
				nd.Y /= m
				nd.Z /= m
			}
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
func (t *Tree) TotalMass() float64 { return t.nodes[0].M }

// CenterOfMass returns the root node's center of mass after ComputeMoments.
func (t *Tree) CenterOfMass() (x, y, z float64) { return t.nodes[0].X, t.nodes[0].Y, t.nodes[0].Z }
