package bvh

import (
	"nbody/internal/body"
	"nbody/internal/grav"
	"nbody/internal/par"
	"nbody/internal/walk"
)

// Accelerations performs the CALCULATEFORCE step of the Hilbert-BVH
// strategy: a stackless skip-list traversal of the implicit heap for every
// body, approximating distant nodes by their moments and computing exact
// pairwise interactions at leaves. Results (G-scaled) are written to the
// system's Acc arrays.
//
// Two differences from the octree traversal, both noted by the paper:
// finishing a subtree jumps directly to the next node across multiple
// levels (the skip-list property of the balanced heap), and the opening
// criterion uses the node's *bounding box* extent, since BVH boxes may be
// elongated and overlap — so θ is not numerically comparable between the
// two strategies. A leaf of more than one body is tested like an interior
// node and, when it fails, evaluated body by body; θ = 0 stays exact.
//
// All iterations are independent; the paper runs this under par_unseq.
//
// Unless phi is nil, each body's potential φᵢ (per unit mass, G-scaled) is
// written into phi, summed over the same accepted nodes and leaf bodies as
// its acceleration.
func (t *Tree) Accelerations(r *par.Runtime, pol par.Policy, s *body.System, p grav.Params, phi []float64) {
	n := s.N()
	eps2 := p.Eps2()
	theta2 := p.Theta * p.Theta
	numLeaves := t.numLeaves
	useBoxDist := t.cfg.Criterion == BoxDistance
	nodes := t.nodes

	posX, posY, posZ, mass := s.PosX, s.PosY, s.PosZ, s.Mass

	r.ForGrain(pol, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xi, yi, zi := posX[i], posY[i], posZ[i]
			var ax, ay, az, pot float64

			node := 1
			for node != 0 {
				nd := &nodes[node]
				if nd.Empty() {
					node = skipNext(node)
					continue
				}
				leaf := node >= numLeaves
				if !leaf || nd.Hi-nd.Lo > 1 {
					// Interior node or bucket leaf: open or approximate
					// by the configured criterion.
					dx := nd.X - xi
					dy := nd.Y - yi
					dz := nd.Z - zi
					crit2 := dx*dx + dy*dy + dz*dz
					if useBoxDist {
						crit2 = t.boxes.At(int32(node)).Dist2(walk.Point(xi, yi, zi))
					}
					if nd.Size*nd.Size < theta2*crit2 {
						grav.Accumulate(dx, dy, dz, nd.M, eps2, &ax, &ay, &az, &pot)
						node = skipNext(node)
						continue
					}
					if !leaf {
						node = 2 * node // descend to left child
						continue
					}
				}
				// Leaf: exact interactions over its contiguous body range.
				for b := int(nd.Lo); b < int(nd.Hi); b++ {
					if b == i {
						continue
					}
					grav.Accumulate(posX[b]-xi, posY[b]-yi, posZ[b]-zi, mass[b], eps2, &ax, &ay, &az, &pot)
				}
				node = skipNext(node)
			}

			s.AccX[i] = p.G * ax
			s.AccY[i] = p.G * ay
			s.AccZ[i] = p.G * az
			if phi != nil {
				phi[i] = -p.G * pot
			}
		}
	})
}

// skipNext returns the node visited after finishing the subtree rooted at
// node: the right sibling if node is a left child, otherwise the first
// right sibling found climbing toward the root; 0 when the traversal is
// complete. This is the multi-level jump the balanced layout affords.
func skipNext(node int) int {
	for node != 1 && node&1 == 1 {
		node >>= 1
	}
	if node == 1 {
		return 0
	}
	return node + 1
}
