// Package walk is the flat force pass of both trees (octree and bvh
// AccelerationsList): one walk per group of consecutive bodies collects the
// group's interaction list, and every body of the group is evaluated
// against it by the soa kernel. The walk reads one Node record per tree
// node and the body columns, nothing else.
//
// The record: X, Y, Z, M are the centre of mass and mass; Size is the
// opening size (the octree's cell edge, the BVH box's longest edge),
// negative exactly when the node covers no bodies; [Lo, Hi) is the node's
// body range, contiguous because both trees sort their bodies along the
// Hilbert curve; Down is the first child, −1 at a leaf; Next is the node
// after this subtree, −1 after the last — the octree's "advance" of the
// paper's Figure 3 and the BVH's skip-list jump, stored instead of
// computed (GADGET's sibling pointer), so the walk never climbs.
//
// The walk rule: group g is the bodies [g·Span, (g+1)·Span) and its box is
// the min/max of their positions. From the root, a node covering no bodies
// is skipped; the group's own node, on a tree whose groups are subtrees
// (View.GroupNode, the BVH), is appended as its body range and skipped —
// everything inside it is at distance zero from the group box; a leaf of
// at most one body is appended as bodies. Any other node, interior or a
// bucket leaf, is accepted as one pseudo-particle when Size < θ·d, d the
// distance from its centre of mass (or, with View.Boxes, from its box) to
// the group box; otherwise an interior node is opened and a bucket leaf
// appended as its body range. d lower-bounds every group body's own
// distance, so the test is never less accurate than the per-body walk at
// equal θ, and θ = 0 stays exact. A group's bodies are in their own list:
// the self term adds no force (package soa), and its potential,
// m·soa.SelfInv(ε²), is taken back out.
package walk

import (
	"math"
	"sync/atomic"

	"nbody/internal/allpairs"
	"nbody/internal/body"
	"nbody/internal/grav"
	"nbody/internal/par"
	"nbody/internal/soa"
)

// GroupSize is the number of bodies a group holds when the caller asks for
// 0 or less.
const GroupSize = 32

// Node is one node of a tree as the walk reads it (see the package doc).
type Node struct {
	X, Y, Z, M float64
	Size       float64
	Lo, Hi     int32
	Down, Next int32
}

// Empty reports whether the node covers no bodies.
func (nd *Node) Empty() bool { return nd.Size < 0 }

// Boxes are per-node bounding boxes, indexed like the nodes.
type Boxes struct {
	MinX, MinY, MinZ []float64
	MaxX, MaxY, MaxZ []float64
}

// View is a built tree as the walk sees it.
type View struct {
	Nodes []Node
	Root  int32
	// Span is the number of bodies of a group.
	Span int
	// GroupNode, when positive, is the node whose subtree holds exactly
	// group 0's bodies, and GroupNode+g that of group g. It is 0 when
	// groups are not nodes.
	GroupNode int32
	// Boxes, when not nil, make the opening test measure the distance from
	// a node's box to the group box instead of from its centre of mass.
	Boxes *Boxes
}

// Accelerations writes the G-scaled accelerations of every body of s, and
// unless phi is nil its potential φᵢ (per unit mass), from v's interaction
// lists — or pairwise when s has at most allpairs.DirectMaxN bodies, where
// the direct sum is no slower than the walk and exact.
func Accelerations(r *par.Runtime, pol par.Policy, v View, s *body.System, p grav.Params, phi []float64) {
	if s.N() <= allpairs.DirectMaxN {
		allpairs.AllPairsPhi(r, pol, s, p, phi)
		return
	}
	Walk(r, pol, v, s, p, phi)
}

// Walk is Accelerations' tree walk, at any N.
func Walk(r *par.Runtime, pol par.Policy, v View, s *body.System, p grav.Params, phi []float64) {
	n, span := s.N(), v.Span
	eps2 := p.Eps2()
	self := soa.SelfInv(eps2)
	theta2 := p.Theta * p.Theta
	posX, posY, posZ, mass := s.PosX, s.PosY, s.PosZ, s.Mass
	// Every list reserves the longest this pass has filled so far: a pooled
	// list grown by appends leaves its smaller arrays as garbage each time
	// the pool is emptied, which on the embedding input costs ~8 MB of peak
	// resident memory (EXPERIMENTS.md, "The one-walker verdict").
	var longest atomic.Int32

	r.For(pol, (n+span-1)/span, func(g int) {
		list := soa.GetList()
		list.Reserve(int(longest.Load()))
		v.Fill(list, s, g, theta2)
		for l := int32(list.Len()); ; {
			if old := longest.Load(); l <= old || longest.CompareAndSwap(old, l) {
				break
			}
		}
		for b, b1 := g*span, min((g+1)*span, n); b < b1; b++ {
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

// Fill appends group g's interaction list to list: accepted nodes as
// pseudo-particles at their centres of mass, the rest as body ranges.
func (v *View) Fill(list *soa.List, s *body.System, g int, theta2 float64) {
	posX, posY, posZ, mass := s.PosX, s.PosY, s.PosZ, s.Mass
	b0 := g * v.Span
	gb := boundsOf(posX, posY, posZ, b0, min(b0+v.Span, s.N()))
	own := int32(-1)
	if v.GroupNode > 0 {
		own = v.GroupNode + int32(g)
	}
	nodes := v.Nodes

	for node := v.Root; node >= 0; {
		nd := &nodes[node]
		switch {
		case nd.Size < 0: // covers no bodies
		case node == own, nd.Down < 0 && nd.Hi-nd.Lo <= 1:
			list.AddBodies(posX, posY, posZ, mass, int(nd.Lo), int(nd.Hi))
		default:
			var d2 float64
			if v.Boxes != nil {
				d2 = v.Boxes.At(node).Dist2(gb)
			} else {
				d2 = Point(nd.X, nd.Y, nd.Z).Dist2(gb)
			}
			switch {
			case nd.Size*nd.Size < theta2*d2:
				list.Add(nd.X, nd.Y, nd.Z, nd.M)
			case nd.Down >= 0:
				node = nd.Down
				continue
			default:
				list.AddBodies(posX, posY, posZ, mass, int(nd.Lo), int(nd.Hi))
			}
		}
		node = nd.Next
	}
}

// Box is an axis-aligned box; a point is the box whose corners coincide.
type Box struct{ MinX, MinY, MinZ, MaxX, MaxY, MaxZ float64 }

// Point returns the box of the point (x, y, z).
func Point(x, y, z float64) Box { return Box{x, y, z, x, y, z} }

// At returns node i's box.
func (bx *Boxes) At(i int32) Box {
	return Box{bx.MinX[i], bx.MinY[i], bx.MinZ[i], bx.MaxX[i], bx.MaxY[i], bx.MaxZ[i]}
}

// boundsOf returns the bounding box of bodies [lo, hi).
func boundsOf(xs, ys, zs []float64, lo, hi int) Box {
	b := Box{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for i := lo; i < hi; i++ {
		b.MinX = math.Min(b.MinX, xs[i])
		b.MinY = math.Min(b.MinY, ys[i])
		b.MinZ = math.Min(b.MinZ, zs[i])
		b.MaxX = math.Max(b.MaxX, xs[i])
		b.MaxY = math.Max(b.MaxY, ys[i])
		b.MaxZ = math.Max(b.MaxZ, zs[i])
	}
	return b
}

// Dist2 returns the squared distance between b and c, zero when they
// overlap.
func (b Box) Dist2(c Box) float64 {
	var d2 float64
	if v := b.MinX - c.MaxX; v > 0 {
		d2 += v * v
	} else if v := c.MinX - b.MaxX; v > 0 {
		d2 += v * v
	}
	if v := b.MinY - c.MaxY; v > 0 {
		d2 += v * v
	} else if v := c.MinY - b.MaxY; v > 0 {
		d2 += v * v
	}
	if v := b.MinZ - c.MaxZ; v > 0 {
		d2 += v * v
	} else if v := c.MinZ - b.MaxZ; v > 0 {
		d2 += v * v
	}
	return d2
}
