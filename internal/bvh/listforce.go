package bvh

import (
	"math/bits"

	"nbody/internal/body"
	"nbody/internal/grav"
	"nbody/internal/par"
	"nbody/internal/walk"
)

// AccelerationsList is the flat-layout CALCULATEFORCE variant of the
// Hilbert-BVH strategy: package walk's group walk, which both trees share,
// over groups that are heap subtrees of about groupBodies bodies (see
// View), spatially compact in curve order. Under BoxDistance its opening
// test measures a node's box to the group box instead of its centre of
// mass. A system of at most allpairs.DirectMaxN bodies is summed pairwise.
func (t *Tree) AccelerationsList(r *par.Runtime, pol par.Policy, s *body.System, p grav.Params, groupBodies int) {
	t.AccelerationsListPhi(r, pol, s, p, groupBodies, nil)
}

// AccelerationsListPhi is AccelerationsList that also writes each body's
// potential φᵢ (per unit mass, G-scaled) into phi unless phi is nil, from
// the same lists and kernel calls as the accelerations (see
// octree.AccelerationsListPhi).
func (t *Tree) AccelerationsListPhi(r *par.Runtime, pol par.Policy, s *body.System, p grav.Params, groupBodies int, phi []float64) {
	walk.Accelerations(r, pol, t.View(groupBodies), s, p, phi)
}

// View returns the tree as the flat walk reads it. A group is 2^shift
// whole leaves, the fewest that hold groupBodies bodies (0 selects
// walk.GroupSize): a power-of-two number of leaves makes group g the body
// range of one heap subtree, under the node above 2^shift leaves (the root
// when the tree has fewer).
func (t *Tree) View(groupBodies int) walk.View {
	if groupBodies <= 0 {
		groupBodies = walk.GroupSize
	}
	leaves := (groupBodies + t.cfg.LeafSize - 1) / t.cfg.LeafSize
	shift := uint(bits.Len(uint(leaves - 1)))
	v := walk.View{Nodes: t.nodes, Root: 1, Span: t.cfg.LeafSize << shift, GroupNode: int32(max(t.numLeaves>>shift, 1))}
	if t.cfg.Criterion == BoxDistance {
		v.Boxes = &t.boxes
	}
	return v
}
