package octree

import (
	"math"

	"nbody/internal/body"
	"nbody/internal/grav"
	"nbody/internal/par"
)

// Accelerations performs the paper's CALCULATEFORCE step: for every body, a
// stackless depth-first traversal of the octree that approximates far-away
// nodes by their multipole moments and computes exact pairwise interactions
// at leaves. Results (G-scaled) are written to the system's Acc arrays.
//
// The traversal is stackless (Figure 3): because every sibling group is
// allocated after its parent, child offsets are strictly greater than the
// parent's, so "advance" can always be computed from the current node index
// alone — the next sibling inside the group, or the parent's successor via
// the per-group parent offsets. Iterations are independent (the tree is
// immutable during this step), so the paper runs it with par_unseq.
//
// The opening criterion is the classic Barnes-Hut test: a node of cell size
// s whose center of mass lies at distance d from the body is approximated
// when s < θ·d, otherwise its children are visited. A bucket leaf of the
// key-sorted build (see isBucket) is tested like an internal node and, when
// it fails, evaluated body by body.
func (t *Tree) Accelerations(r *par.Runtime, pol par.Policy, s *body.System, p grav.Params) {
	n := s.N()
	eps2 := p.Eps2()
	theta2 := p.Theta * p.Theta
	rootSize := 2 * t.rootHalf

	// Precompute cell sizes per depth: size(d) = rootSize / 2^d.
	var sizeAt [260]float64
	sz := rootSize
	for d := range sizeAt {
		sizeAt[d] = sz
		sz *= 0.5
	}

	posX, posY, posZ, mass := s.PosX, s.PosY, s.PosZ, s.Mass

	r.ForGrain(pol, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xi, yi, zi := posX[i], posY[i], posZ[i]
			var ax, ay, az float64

			node := int32(0)
			for node >= 0 {
				tok := t.child[node]
				if tok >= 0 || t.isBucket(node, tok) {
					// Internal node or bucket: multipole-accept or open.
					dx := t.comX[node] - xi
					dy := t.comY[node] - yi
					dz := t.comZ[node] - zi
					d2 := dx*dx + dy*dy + dz*dz
					size := sizeAt[t.depthOf(node)]
					if size*size < theta2*d2 {
						grav.Accumulate(dx, dy, dz, t.m[node], eps2, &ax, &ay, &az)
						node = t.advance(node)
						continue
					}
					if tok >= 0 {
						node = tok // forward step: descend to first child
						continue
					}
				}
				// Leaf: exact interactions over the (typically
				// single-element) chain, skipping the body itself.
				for b := leafBody(tok); b >= 0; b = t.next[b] {
					if int(b) == i {
						continue
					}
					grav.Accumulate(posX[b]-xi, posY[b]-yi, posZ[b]-zi, mass[b], eps2, &ax, &ay, &az)
				}
				node = t.advance(node)
			}

			s.AccX[i] = p.G * ax
			s.AccY[i] = p.G * ay
			s.AccZ[i] = p.G * az
		}
	})
}

// isBucket reports whether node, whose token is tok, is a leaf of the
// key-sorted build holding more than one body. The traversals apply the
// opening criterion to such a leaf as they do to an internal node — its cell
// and moments mean the same — and take its bodies one by one only when it
// fails: never less accurate than subdividing down to single bodies, and
// exact at θ = 0. The concurrent build's max-depth chains are not buckets;
// they are always evaluated body by body, as in the paper.
func (t *Tree) isBucket(node, tok int32) bool {
	return t.cfg.KeySorted && isBody(tok) && t.leafEnd[node]-tokenBody(tok) > 1
}

// advance returns the DFS successor of node once its subtree is finished
// (the "backward step" of Figure 3): the next sibling if one remains in the
// group, otherwise the parent's successor, climbing via the per-group
// parent offsets. It returns -1 after the root.
func (t *Tree) advance(node int32) int32 {
	for node != 0 {
		if (node-1)%8 != 7 {
			return node + 1 // next sibling
		}
		node = t.parentOf(node)
	}
	return -1
}

// Potential estimates each body's gravitational potential energy with the
// same traversal and opening criterion as Accelerations, writing φᵢ (the
// potential per unit mass, G-scaled) into out. Total potential energy is
// ½·Σ mᵢφᵢ. Used for O(N log N) energy diagnostics where the exact O(N²)
// sum would dominate the runtime.
func (t *Tree) Potential(r *par.Runtime, pol par.Policy, s *body.System, p grav.Params, out []float64) {
	n := s.N()
	eps2 := p.Eps2()
	theta2 := p.Theta * p.Theta
	rootSize := 2 * t.rootHalf

	var sizeAt [260]float64
	sz := rootSize
	for d := range sizeAt {
		sizeAt[d] = sz
		sz *= 0.5
	}

	posX, posY, posZ, mass := s.PosX, s.PosY, s.PosZ, s.Mass

	r.ForGrain(pol, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xi, yi, zi := posX[i], posY[i], posZ[i]
			var phi float64

			node := int32(0)
			for node >= 0 {
				tok := t.child[node]
				if tok >= 0 || t.isBucket(node, tok) {
					dx := t.comX[node] - xi
					dy := t.comY[node] - yi
					dz := t.comZ[node] - zi
					d2 := dx*dx + dy*dy + dz*dz
					size := sizeAt[t.depthOf(node)]
					if size*size < theta2*d2 {
						phi -= t.m[node] / math.Sqrt(d2+eps2)
						node = t.advance(node)
						continue
					}
					if tok >= 0 {
						node = tok
						continue
					}
				}
				for b := leafBody(tok); b >= 0; b = t.next[b] {
					if int(b) == i {
						continue
					}
					dx := posX[b] - xi
					dy := posY[b] - yi
					dz := posZ[b] - zi
					r2 := dx*dx + dy*dy + dz*dz + eps2
					if r2 > 0 {
						phi -= mass[b] / math.Sqrt(r2)
					}
				}
				node = t.advance(node)
			}

			out[i] = p.G * phi
		}
	})
}
