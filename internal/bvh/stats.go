package bvh

import (
	"fmt"
	"math"
)

// Stats summarizes the quality of a built BVH — the quantities behind the
// paper's box-overlap discussion: how elongated the node boxes are and how
// much siblings overlap, both of which degrade the effective accuracy of a
// given θ.
type Stats struct {
	Bodies           int
	Leaves           int // occupied leaves
	Levels           int
	MeanLeafDiagonal float64 // mean diagonal of occupied multi-body leaf boxes
	MeanElongation   float64 // mean (longest edge / shortest edge) over occupied interior boxes
	SiblingOverlap   float64 // fraction of sibling pairs whose boxes overlap
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("bvh{bodies: %d, leaves: %d, levels: %d, leafDiag: %.4g, elongation: %.3g, overlap: %.1f%%}",
		s.Bodies, s.Leaves, s.Levels, s.MeanLeafDiagonal, s.MeanElongation, 100*s.SiblingOverlap)
}

// Stats walks the tree and returns quality statistics.
func (t *Tree) Stats() Stats {
	st := Stats{Bodies: t.n, Levels: t.levels}

	var diagSum float64
	diagCount := 0
	for j := 0; j < t.numLeaves; j++ {
		node := t.numLeaves + j
		if t.nodes[node].Empty() {
			continue
		}
		st.Leaves++
		if t.NodeCount(node) > 1 {
			diagSum += t.NodeBox(node).Diagonal()
			diagCount++
		}
	}
	if diagCount > 0 {
		st.MeanLeafDiagonal = diagSum / float64(diagCount)
	}

	var elongSum float64
	elongCount := 0
	overlapping, pairs := 0, 0
	for node := 1; node < t.numLeaves; node++ {
		if t.nodes[node].Empty() {
			continue
		}
		ex := t.boxes.MaxX[node] - t.boxes.MinX[node]
		ey := t.boxes.MaxY[node] - t.boxes.MinY[node]
		ez := t.boxes.MaxZ[node] - t.boxes.MinZ[node]
		lo := math.Min(ex, math.Min(ey, ez))
		hi := math.Max(ex, math.Max(ey, ez))
		if lo > 0 {
			elongSum += hi / lo
			elongCount++
		}
		l, r := 2*node, 2*node+1
		if !t.nodes[l].Empty() && !t.nodes[r].Empty() {
			pairs++
			if t.boxes.At(int32(l)).Dist2(t.boxes.At(int32(r))) == 0 {
				overlapping++
			}
		}
	}
	if elongCount > 0 {
		st.MeanElongation = elongSum / float64(elongCount)
	}
	if pairs > 0 {
		st.SiblingOverlap = float64(overlapping) / float64(pairs)
	}
	return st
}
