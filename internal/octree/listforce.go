package octree

import (
	"nbody/internal/body"
	"nbody/internal/grav"
	"nbody/internal/par"
	"nbody/internal/walk"
)

// AccelerationsList is the flat-layout CALCULATEFORCE variant: a group
// traversal (the "multiple-walk" optimization of Hamada et al., the
// paper's related work, Section VI) with traversal and evaluation
// separated — package walk's group walk, which both trees share, over runs
// of groupSize consecutive bodies. Accepted nodes are monopoles, as on
// every octree path. A system of at most allpairs.DirectMaxN bodies is
// summed pairwise.
//
// The walk reads the records of the key-sorted build, whose leaves are
// body ranges (Config.KeySorted; core sets it for every flat-layout
// octree): AccelerationsList panics on a tree of the concurrent build.
func (t *Tree) AccelerationsList(r *par.Runtime, pol par.Policy, s *body.System, p grav.Params, groupSize int) {
	walk.Accelerations(r, pol, t.View(groupSize), s, p, nil)
}

// View returns the key-sorted tree as the flat walk reads it, in groups of
// groupSize bodies (0 selects walk.GroupSize). Groups are body runs, not
// nodes.
func (t *Tree) View(groupSize int) walk.View {
	if !t.cfg.KeySorted {
		panic("octree: the flat walk needs a key-sorted tree (Config.KeySorted)")
	}
	if groupSize <= 0 {
		groupSize = walk.GroupSize
	}
	return walk.View{Nodes: t.nodes[:t.NumNodes()], Span: groupSize}
}
