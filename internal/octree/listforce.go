package octree

import (
	"math"

	"nbody/internal/allpairs"
	"nbody/internal/body"
	"nbody/internal/grav"
	"nbody/internal/par"
	"nbody/internal/soa"
)

// AccelerationsList is the flat-layout CALCULATEFORCE variant: a group
// traversal (the "multiple-walk" optimization of Hamada et al., the
// paper's related work, Section VI) with traversal and evaluation
// *separated*. One walk per group of consecutive bodies collects every
// accepted far-field node (as a point mass at its center of mass) and
// every near-field leaf body into a soa.List; a second pass then evaluates
// each body of the group against the list in one tight branch-free loop
// over four dense arrays. Splitting the phases removes the irregular
// pointer-chasing control flow from the arithmetic-dense part entirely —
// the evaluation loop touches no tree state — which is the interaction-
// list batching of Tokuue & Ishiyama and Bédorf et al.
//
// The opening test must hold for every body of the group, so it is made
// conservative (size < θ·dist(com, group box)): accuracy is never worse
// than per-body Barnes-Hut at equal θ, and θ = 0 remains exact. Group
// bodies appear in their own near field; the self term contributes exactly
// zero under the kernel convention, so no index test is needed (see
// package soa).
//
// Accepted nodes are monopoles, as on every octree path. Groups are runs
// of consecutive bodies, so this traversal profits greatly from
// Config.KeySorted (compact groups open far fewer nodes); core enables
// it for every flat-layout octree.
//
// A system of at most allpairs.DirectMaxN bodies is summed pairwise
// instead: there the direct sum is no slower than the walk and exact.
func (t *Tree) AccelerationsList(r *par.Runtime, pol par.Policy, s *body.System, p grav.Params, groupSize int) {
	if s.N() <= allpairs.DirectMaxN {
		allpairs.AllPairs(r, pol, s, p)
		return
	}
	t.accelerationsList(r, pol, s, p, groupSize)
}

// accelerationsList is AccelerationsList's tree walk, at any N.
func (t *Tree) accelerationsList(r *par.Runtime, pol par.Policy, s *body.System, p grav.Params, groupSize int) {
	n := s.N()
	if groupSize <= 0 {
		groupSize = 32
	}
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
	sorted := t.cfg.KeySorted
	numGroups := (n + groupSize - 1) / groupSize

	r.For(pol, numGroups, func(g int) {
		b0 := g * groupSize
		b1 := min(b0+groupSize, n)

		// Group bounding box.
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
		boxDist2 := func(x, y, z float64) float64 {
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

		// Walk: collect the interaction list.
		list := soa.GetList()
		list.Reserve(int(t.longestList.Load()))
		node := int32(0)
		for node >= 0 {
			tok := t.child[node]
			if tok >= 0 || t.isBucket(node, tok) {
				cx, cy, cz := t.comX[node], t.comY[node], t.comZ[node]
				size := sizeAt[t.depthOf(node)]
				if size*size < theta2*boxDist2(cx, cy, cz) {
					list.Add(cx, cy, cz, t.m[node])
					node = t.advance(node)
					continue
				}
				if tok >= 0 {
					node = tok
					continue
				}
			}
			if sorted {
				if tok != TokenEmpty {
					list.AddBodies(posX, posY, posZ, mass, int(tokenBody(tok)), int(t.leafEnd[node]))
				}
			} else {
				for src := leafBody(tok); src >= 0; src = t.next[src] {
					list.Add(posX[src], posY[src], posZ[src], mass[src])
				}
			}
			node = t.advance(node)
		}

		// Evaluate: every group body against the same list.
		for b := b0; b < b1; b++ {
			ax, ay, az := list.Accel(posX[b], posY[b], posZ[b], eps2)
			s.AccX[b] = p.G * ax
			s.AccY[b] = p.G * ay
			s.AccZ[b] = p.G * az
		}
		for n := int32(list.Len()); ; {
			if old := t.longestList.Load(); n <= old || t.longestList.CompareAndSwap(old, n) {
				break
			}
		}
		soa.PutList(list)
	})
}
