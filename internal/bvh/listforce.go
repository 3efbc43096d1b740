package bvh

import (
	"math"

	"nbody/internal/body"
	"nbody/internal/grav"
	"nbody/internal/par"
	"nbody/internal/soa"
)

// AccelerationsList is the flat-layout CALCULATEFORCE variant of the
// Hilbert-BVH strategy: one skip-list walk per group of consecutive
// leaves (curve order makes them spatially compact) collects accepted
// far-field nodes and near-field leaf bodies into a soa.List, and a
// second pass evaluates every body of the group against the list in one
// tight branch-free loop. See octree.AccelerationsList and package soa
// for the batching rationale; groupBodies is the target number of bodies
// sharing a walk (rounded up to whole leaves).
//
// The opening test is made conservative for the whole group: under
// CenterDistance the node's com distance is measured to the group's
// bounding box, under BoxDistance the node box's distance likewise — both
// lower-bound every per-body distance in the group, so a node is
// approximated only when the per-body criterion would have accepted it
// for every member. Accuracy is therefore never worse than the per-body
// walk at equal θ.
func (t *Tree) AccelerationsList(r *par.Runtime, pol par.Policy, s *body.System, p grav.Params, groupBodies int) {
	n := s.N()
	if groupBodies <= 0 {
		groupBodies = 32
	}
	eps2 := p.Eps2()
	theta2 := p.Theta * p.Theta
	leafSize := t.cfg.LeafSize

	posX, posY, posZ := s.PosX, s.PosY, s.PosZ

	// Whole leaves per group, so leaf body ranges never straddle groups.
	leavesPer := (groupBodies + leafSize - 1) / leafSize
	span := leavesPer * leafSize
	numGroups := (n + span - 1) / span

	r.For(pol, numGroups, func(g int) {
		b0 := g * span
		b1 := min(b0+span, n)
		list := soa.GetList()
		t.groupList(list, s, b0, b1, theta2)

		// Evaluate: every group body against the same list.
		for b := b0; b < b1; b++ {
			ax, ay, az := list.Accel(posX[b], posY[b], posZ[b], eps2)
			s.AccX[b] = p.G * ax
			s.AccY[b] = p.G * ay
			s.AccZ[b] = p.G * az
		}
		soa.PutList(list)
	})
}

// groupList walks the tree once for the bodies [b0, b1) and appends their
// shared interaction list to list: accepted nodes as pseudo-particles,
// opened leaves as body ranges. A leaf of more than one body is tested
// like an interior node.
func (t *Tree) groupList(list *soa.List, s *body.System, b0, b1 int, theta2 float64) {
	n := s.N()
	numLeaves := t.numLeaves
	leafSize := t.cfg.LeafSize
	useBoxDist := t.cfg.Criterion == BoxDistance
	nodes := t.nodes
	posX, posY, posZ, mass := s.PosX, s.PosY, s.PosZ, s.Mass

	// Group bounding box from current positions (exact even when the
	// leaf boxes are a refit's stale-order ones).
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
