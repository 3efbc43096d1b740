package sfc

import (
	"nbody/internal/body"
	"nbody/internal/bounds"
	"nbody/internal/par"
)

// SortBodies is the paper's HILBERTSORT (Algorithm 7), shared by both
// trees: it grids the bodies of s on 2^MaxOrder3D cells per side of cube
// (clamped, so a body on the cube's upper faces lands in the last cell),
// keys each with HilbertIndex3D, sorts the (key, body) pairs and permutes
// the arrays of s into curve order. keys and perm must have length s.N();
// on return keys holds the sorted keys and perm[i] is the index before the
// sort of the body now at i. All three phases run under pol.
func SortBodies(r *par.Runtime, pol par.Policy, s *body.System, cube bounds.AABB, keys []uint64, perm []int32) {
	const maxCoord = uint32(1)<<MaxOrder3D - 1
	inv := 0.0
	if ext := cube.MaxExtent(); ext > 0 {
		inv = float64(maxCoord+1) / ext
	}
	origin := cube.Min
	posX, posY, posZ := s.PosX, s.PosY, s.PosZ
	r.ForGrain(pol, s.N(), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			keys[i] = HilbertIndex3D(
				gridCoord(posX[i], origin.X, inv, maxCoord),
				gridCoord(posY[i], origin.Y, inv, maxCoord),
				gridCoord(posZ[i], origin.Z, inv, maxCoord), MaxOrder3D)
			perm[i] = int32(i)
		}
	})
	par.SortByKeys(r, pol, keys, perm)
	s.Permute(r, pol, perm)
}
