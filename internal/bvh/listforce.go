package bvh

import (
	"math/bits"

	"nbody/internal/allpairs"
	"nbody/internal/body"
	"nbody/internal/grav"
	"nbody/internal/par"
	"nbody/internal/soa"
)

// AccelerationsList is the flat-layout CALCULATEFORCE variant of the
// Hilbert-BVH strategy: one skip-list walk per group — the bodies of one
// heap subtree, which curve order makes spatially compact — collects
// accepted far-field nodes and near-field leaf bodies into a soa.List, and
// a second pass evaluates every body of the group against the list in one
// tight branch-free loop. See octree.AccelerationsList and package soa
// for the batching rationale; groupBodies is the target number of bodies
// sharing a walk (rounded up to a power-of-two number of whole leaves).
//
// The opening test is made conservative for the whole group: under
// CenterDistance the node's com distance is measured to the group's
// bounding box, under BoxDistance the node box's distance likewise — both
// lower-bound every per-body distance in the group, so a node is
// approximated only when the per-body criterion would have accepted it
// for every member. Accuracy is therefore never worse than the per-body
// walk at equal θ.
//
// A system of at most allpairs.DirectMaxN bodies is summed pairwise
// instead: there the direct sum is no slower than the walk and exact.
func (t *Tree) AccelerationsList(r *par.Runtime, pol par.Policy, s *body.System, p grav.Params, groupBodies int) {
	t.AccelerationsListPhi(r, pol, s, p, groupBodies, nil)
}

// AccelerationsListPhi is AccelerationsList that also writes each body's
// potential φᵢ (per unit mass, G-scaled) into phi unless phi is nil, from
// the same lists and kernel calls as the accelerations (see
// octree.AccelerationsListPhi).
func (t *Tree) AccelerationsListPhi(r *par.Runtime, pol par.Policy, s *body.System, p grav.Params, groupBodies int, phi []float64) {
	if s.N() <= allpairs.DirectMaxN {
		allpairs.AllPairsPhi(r, pol, s, p, phi)
		return
	}
	t.accelerationsList(r, pol, s, p, groupBodies, phi)
}

// accelerationsList is AccelerationsListPhi's tree walk, at any N.
func (t *Tree) accelerationsList(r *par.Runtime, pol par.Policy, s *body.System, p grav.Params, groupBodies int, phi []float64) {
	n := s.N()
	eps2 := p.Eps2()
	self := soa.SelfInv(eps2)
	theta2 := p.Theta * p.Theta
	posX, posY, posZ, mass := s.PosX, s.PosY, s.PosZ, s.Mass

	shift, span := t.groupShape(groupBodies)
	numGroups := (n + span - 1) / span

	r.For(pol, numGroups, func(g int) {
		b0 := g * span
		b1 := min(b0+span, n)
		list := soa.GetList()
		t.groupList(list, s, t.groupNode(g, shift), theta2)

		// Evaluate: every group body against the same list, which holds
		// the body itself (see allpairs.AllPairsPhi for the self term).
		for b := b0; b < b1; b++ {
			ax, ay, az, pot := list.AccelPot(posX[b], posY[b], posZ[b], eps2)
			s.AccX[b] = p.G * ax
			s.AccY[b] = p.G * ay
			s.AccZ[b] = p.G * az
			if phi != nil {
				phi[b] = p.G * (mass[b]*self - pot)
			}
		}
		soa.PutList(list)
	})
}

// groupShape returns the shape of a walk group for a target of
// groupBodies bodies (0 selects 32): 2^shift whole leaves, span bodies.
// A power-of-two number of leaves makes every group one heap subtree.
func (t *Tree) groupShape(groupBodies int) (shift uint, span int) {
	if groupBodies <= 0 {
		groupBodies = 32
	}
	leaves := (groupBodies + t.cfg.LeafSize - 1) / t.cfg.LeafSize
	shift = uint(bits.Len(uint(leaves - 1)))
	return shift, t.cfg.LeafSize << shift
}

// groupNode returns the heap node whose subtree holds group g's bodies:
// the node above 2^shift leaves, or the root when the tree has fewer.
func (t *Tree) groupNode(g int, shift uint) int {
	return max(t.numLeaves>>shift, 1) + g
}

// groupList walks the tree once for the bodies under heap node group and
// appends their shared interaction list to list: accepted nodes as
// pseudo-particles, opened leaves and the group itself as body ranges. A
// leaf of more than one body is tested like an interior node.
//
// The group box is the group node's box. Every box is a min/max over the
// current positions of the bodies under it, after a refit as after a
// build, so this is the tight box of the group's bodies. Every node inside
// the group lies at distance zero from it and would be opened down to its
// leaves, so the walk takes the group's bodies as one range on reaching it.
func (t *Tree) groupList(list *soa.List, s *body.System, group int, theta2 float64) {
	n := s.N()
	numLeaves := t.numLeaves
	leafSize := t.cfg.LeafSize
	useBoxDist := t.cfg.Criterion == BoxDistance
	nodes := t.nodes
	posX, posY, posZ, mass := s.PosX, s.PosY, s.PosZ, s.Mass

	gMinX, gMinY, gMinZ := t.minX[group], t.minY[group], t.minZ[group]
	gMaxX, gMaxY, gMaxZ := t.maxX[group], t.maxY[group], t.maxZ[group]
	gLo, gHi := t.nodeRange(group)

	// Squared distance from a point to the group box (zero inside).
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
	// Squared distance between node i's box and the group box (zero
	// when they overlap).
	boxDist2 := func(i int) float64 {
		var d2 float64
		if v := t.minX[i] - gMaxX; v > 0 {
			d2 += v * v
		} else if v := gMinX - t.maxX[i]; v > 0 {
			d2 += v * v
		}
		if v := t.minY[i] - gMaxY; v > 0 {
			d2 += v * v
		} else if v := gMinY - t.maxY[i]; v > 0 {
			d2 += v * v
		}
		if v := t.minZ[i] - gMaxZ; v > 0 {
			d2 += v * v
		} else if v := gMinZ - t.maxZ[i]; v > 0 {
			d2 += v * v
		}
		return d2
	}

	node := 1
	for node != 0 {
		nd := &nodes[node]
		if nd.empty() {
			node = skipNext(node)
			continue
		}
		if node == group {
			list.AddBodies(posX, posY, posZ, mass, gLo, gHi)
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
				crit2 = pointDist2(nd.x, nd.y, nd.z)
			}
			if nd.size*nd.size < theta2*crit2 {
				list.Add(nd.x, nd.y, nd.z, nd.m)
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
