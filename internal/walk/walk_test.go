package walk_test

import (
	"testing"

	"nbody/internal/body"
	"nbody/internal/bounds"
	"nbody/internal/bvh"
	"nbody/internal/grav"
	"nbody/internal/octree"
	"nbody/internal/par"
	"nbody/internal/soa"
	"nbody/internal/walk"
	"nbody/internal/workload"
)

// BenchmarkGroupWalk times the walk and the list fill alone — no kernel —
// over every group of one 100 000-body galaxy collision, on one goroutine,
// for the key-sorted octree and the BVH at the default θ and group size:
// the walk's share of a flat force pass. The trees' own walk tests
// (octree TestRecordWalkMatchesTokenWalk, bvh TestRecordWalksMatchOracle
// and TestSubtreeGroupsMatchPositionGroups) hold its lists to their
// oracles.
func BenchmarkGroupWalk(b *testing.B) {
	const n = 100_000
	input := workload.GalaxyCollision(n, 4601000)
	r := par.NewRuntime(1, par.Dynamic)
	p := grav.DefaultParams()
	box := bounds.OfPositions(r, par.Seq, input.PosX, input.PosY, input.PosZ)

	octS := input.Clone()
	oct := octree.New(octree.Config{KeySorted: true})
	if err := oct.Build(r, octS, box); err != nil {
		b.Fatal(err)
	}
	oct.ComputeMoments(r, octS)
	bvhS := input.Clone()
	bt := bvh.New(bvh.Config{})
	bt.Build(r, par.Seq, bvhS, box)

	for _, c := range []struct {
		name string
		v    walk.View
		s    *body.System
	}{
		{"octree", oct.View(0), octS},
		{"bvh", bt.View(0), bvhS},
	} {
		b.Run(c.name, func(b *testing.B) {
			var list soa.List
			groups := (n + c.v.Span - 1) / c.v.Span
			entries := 0
			for i := 0; i < b.N; i++ {
				entries = 0
				for g := 0; g < groups; g++ {
					list.Reset()
					c.v.Fill(&list, c.s, g, p.Theta*p.Theta)
					entries += list.Len()
				}
			}
			b.ReportMetric(float64(entries)/float64(groups), "entries/group")
		})
	}
}
