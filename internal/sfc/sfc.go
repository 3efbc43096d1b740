// Package sfc implements the space-filling curves used by the tree builders:
//
//   - the Hilbert curve via Skilling's transposed-Gray-code algorithm
//     ("Programming the Hilbert curve", AIP 2004 — reference [17] of the
//     paper), which orders the bodies for the Hilbert-sorted BVH strategy;
//   - the Morton (Z-order) curve, which defines the child ordering inside
//     octree cells and serves as the ablation ordering for the BVH (the
//     Lauterbach-style Morton BVH the paper's related work discusses).
//
// Both curves map discrete 3D grid coordinates with `order` bits per
// dimension to a single index of 3*order bits, preserving spatial locality.
// The Hilbert curve additionally guarantees that consecutive indices are
// face-adjacent cells (unit steps), which is what makes BVH nodes built from
// contiguous runs compact.
package sfc

// MaxOrder3D is the largest per-dimension bit count whose 3D index fits in a
// uint64 (3*21 = 63 bits).
const MaxOrder3D = 21

// HilbertIndex3D returns the Hilbert-curve index of grid cell (x, y, z) on a
// 2^order³ grid. Coordinates must be < 2^order; order must be in
// [1, MaxOrder3D]. The index of consecutive cells along the curve differs by
// one, and the cells are face neighbours.
func HilbertIndex3D(x, y, z uint32, order uint) uint64 {
	checkOrder(order)
	var t [3]uint32
	t[0], t[1], t[2] = x, y, z
	axesToTranspose(t[:], order)
	return interleaveTranspose(t[:], order)
}

// HilbertCoords3D inverts HilbertIndex3D.
func HilbertCoords3D(h uint64, order uint) (x, y, z uint32) {
	checkOrder(order)
	var t [3]uint32
	deinterleaveTranspose(h, t[:], order)
	transposeToAxes(t[:], order)
	return t[0], t[1], t[2]
}

func checkOrder(order uint) {
	if order < 1 || order > MaxOrder3D {
		panic("sfc: order out of range")
	}
}

// axesToTranspose converts grid coordinates into the transposed Hilbert
// representation in place (Skilling's AxestoTranspose).
func axesToTranspose(x []uint32, order uint) {
	n := len(x)
	m := uint32(1) << (order - 1)

	// Inverse undo.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p // invert
			} else {
				t := (x[0] ^ x[i]) & p // exchange
				x[0] ^= t
				x[i] ^= t
			}
		}
	}

	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes inverts axesToTranspose in place (Skilling's
// TransposetoAxes).
func transposeToAxes(x []uint32, order uint) {
	n := len(x)
	limit := uint32(2) << (order - 1)

	// Gray decode by H ^ (H/2).
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t

	// Undo excess work.
	for q := uint32(2); q != limit; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}

// interleaveTranspose packs the transposed representation into a single
// index: bit j of x[i] becomes bit (j*n + (n-1-i)) of the result, i.e. the
// most significant bit of each group comes from x[0].
func interleaveTranspose(x []uint32, order uint) uint64 {
	n := len(x)
	var h uint64
	for j := int(order) - 1; j >= 0; j-- {
		for i := 0; i < n; i++ {
			h = h<<1 | uint64((x[i]>>uint(j))&1)
		}
	}
	return h
}

// deinterleaveTranspose inverts interleaveTranspose.
func deinterleaveTranspose(h uint64, x []uint32, order uint) {
	n := len(x)
	for i := range x {
		x[i] = 0
	}
	for j := int(order) - 1; j >= 0; j-- {
		for i := 0; i < n; i++ {
			shift := uint(j)*uint(n) + uint(n-1-i)
			x[i] |= uint32((h>>shift)&1) << uint(j)
		}
	}
}

// GridCoord maps one position component to its cell on a grid of
// maxCoord+1 cells per dimension that starts at origin, where inv is cells
// per unit length. The result is clamped to the grid, so a position on the
// upper face of the gridded cube lands in the last cell. Both trees quantise
// with it, each over its own cube.
func GridCoord(p, origin, inv float64, maxCoord uint32) uint32 {
	v := (p - origin) * inv
	if v <= 0 {
		return 0
	}
	g := uint32(v)
	if g > maxCoord {
		return maxCoord
	}
	return g
}

// MortonIndex3D returns the Morton (Z-order) index of (x, y, z), using
// MaxOrder3D bits per dimension. Higher coordinates bits beyond MaxOrder3D
// are ignored. Bit layout: x is most significant within each 3-bit group,
// matching the octree child ordering (child = xbit<<2 | ybit<<1 | zbit).
func MortonIndex3D(x, y, z uint32) uint64 {
	return part1By2(x)<<2 | part1By2(y)<<1 | part1By2(z)
}

// MortonCoords3D inverts MortonIndex3D.
func MortonCoords3D(m uint64) (x, y, z uint32) {
	return compact1By2(m >> 2), compact1By2(m >> 1), compact1By2(m)
}

// part1By2 spreads the low 21 bits of v so each lands 3 positions apart.
func part1By2(v uint32) uint64 {
	x := uint64(v) & 0x1fffff
	x = (x | x<<32) & 0x1f00000000ffff
	x = (x | x<<16) & 0x1f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

// compact1By2 inverts part1By2.
func compact1By2(x uint64) uint32 {
	x &= 0x1249249249249249
	x = (x ^ x>>2) & 0x10c30c30c30c30c3
	x = (x ^ x>>4) & 0x100f00f00f00f00f
	x = (x ^ x>>8) & 0x1f0000ff0000ff
	x = (x ^ x>>16) & 0x1f00000000ffff
	x = (x ^ x>>32) & 0x1fffff
	return uint32(x)
}
