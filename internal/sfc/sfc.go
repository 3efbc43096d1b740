// Package sfc implements the space-filling curve both trees order their
// bodies by, the Hilbert curve, and the sort that orders them (SortBodies,
// the paper's HILBERTSORT). HilbertIndex3D walks the curve's 24-state
// machine two levels per table lookup; Skilling's transposed-Gray-code
// algorithm ("Programming the Hilbert curve", AIP 2004 — reference [17] of
// the paper) is the oracle the tables are generated from and tested
// against, and HilbertCoords3D decodes with it. The Morton (Z-order)
// interleave is kept only as the octant digits the table walk reads.
//
// The curve maps discrete 3D grid coordinates with `order` bits per
// dimension to a single index of 3*order bits, preserving spatial locality:
// the first d octal digits of an index name the cell of the 2^d³ grid that
// holds it, so every cell at every depth is one contiguous index range (the
// key-sorted octree builds its nodes from that), and consecutive indices
// are face-adjacent cells (unit steps), which is what makes BVH nodes built
// from contiguous runs compact.
package sfc

// MaxOrder3D is the largest per-dimension bit count whose 3D index fits in a
// uint64 (3*21 = 63 bits).
const MaxOrder3D = 21

// HilbertIndex3D returns the Hilbert-curve index of grid cell (x, y, z) on a
// 2^order³ grid. Coordinates must be < 2^order; order must be in
// [1, MaxOrder3D]. The index of consecutive cells along the curve differs by
// one, and the cells are face neighbours.
//
// It walks the curve's state machine from the top level down, two levels
// per lookup: the cell's octants at two consecutive levels (six bits of the
// Morton interleave) are one lookup in hilbertPairs, giving both levels'
// index digits and the state of the grandchild cell. An odd order takes one
// single-level step in hilbertTable first. The keys are bit-identical to
// Skilling's transform (hilbertSkilling), from which the tables are
// generated.
func HilbertIndex3D(x, y, z uint32, order uint) uint64 {
	checkOrder(order)
	oct := mortonIndex3D(x, y, z)
	var row uint16 // the root cell is in state 0 at every order
	var h uint64
	shift := 3 * order
	if order&1 != 0 {
		shift -= 3
		e := hilbertTable[oct>>shift&7]
		h = uint64(e & 7)
		row = uint16(e>>3) << 6
	}
	for shift > 0 {
		shift -= 6
		e := hilbertPairs[row|uint16(oct>>shift&63)]
		h = h<<6 | uint64(e&63)
		row = e &^ 63
	}
	return h
}

// hilbertPairs is hilbertTable composed with itself: entry row|pair, where
// row is 64·state and pair holds the octants of a cell and of its child
// (the parent's in the upper three bits), holds the grandchild's row in its
// upper bits and the two index digits, parent's first, in its lower six.
var hilbertPairs = func() (pairs [24 * 64]uint16) {
	for state := range 24 {
		for pair := range 64 {
			e1 := hilbertTable[state<<3|pair>>3]
			e2 := hilbertTable[e1&^7|uint8(pair&7)]
			pairs[state<<6|pair] = uint16(e2>>3)<<6 | uint16(e1&7)<<3 | uint16(e2&7)
		}
	}
	return pairs
}()

// hilbertTable is the curve's state machine: entry row|octant, where row is
// 8·state, holds the child cell's row in its upper five bits and the index
// digit of the octant in its lower three. There are 24 states, one per
// orientation of the curve inside a cell; the tail of the array is unused
// and lets a uint8 index it without a bounds check.
// TestHilbertTableFromSkilling regenerates it from hilbertSkilling and
// prints it when it differs.
var hilbertTable = [256]uint8{
	0x08, 0x11, 0x1b, 0x02, 0x27, 0x2e, 0x34, 0x05,
	0x38, 0x47, 0x49, 0x56, 0x5b, 0x14, 0x0a, 0x0d,
	0x30, 0x01, 0x67, 0x6e, 0x73, 0x12, 0x0c, 0x15,
	0x7e, 0x81, 0x1d, 0x1a, 0x4f, 0x50, 0x8c, 0x03,
	0x94, 0x2b, 0x25, 0x22, 0x7f, 0x80, 0x4e, 0x51,
	0x9c, 0x2d, 0x23, 0x2a, 0x1f, 0x06, 0xa0, 0x69,
	0x48, 0x57, 0x8b, 0x04, 0x39, 0x46, 0x32, 0x35,
	0x00, 0xab, 0x6f, 0x4c, 0x31, 0x3a, 0x66, 0x3d,
	0xb4, 0x8f, 0x53, 0xb8, 0x45, 0x36, 0x42, 0x61,
	0x10, 0x7b, 0x09, 0x4a, 0x2f, 0x3c, 0x26, 0x4d,
	0x84, 0x5f, 0x55, 0x0e, 0x43, 0x90, 0x52, 0x21,
	0x8e, 0x37, 0xb9, 0x60, 0x5d, 0x74, 0x5a, 0x0b,
	0xbc, 0x6b, 0xaf, 0xb0, 0x65, 0x62, 0x3e, 0x41,
	0xa4, 0x6d, 0x77, 0x16, 0x63, 0x6a, 0x98, 0x29,
	0xae, 0xb1, 0x3f, 0x40, 0x75, 0x72, 0x5c, 0x13,
	0x1e, 0x7d, 0xa1, 0x7a, 0x07, 0xac, 0x68, 0x4b,
	0x82, 0x19, 0x85, 0xa6, 0xb3, 0x88, 0x54, 0xbf,
	0x5e, 0x0f, 0x8d, 0x1c, 0x91, 0x20, 0x8a, 0x33,
	0x92, 0x9b, 0x95, 0x24, 0x89, 0x18, 0xbe, 0xa7,
	0x9a, 0x9d, 0x93, 0x2c, 0xa9, 0xb6, 0x78, 0x87,
	0xa2, 0xa5, 0x79, 0x86, 0xbb, 0x6c, 0xa8, 0xb7,
	0x76, 0xad, 0x17, 0x7c, 0x99, 0xaa, 0x28, 0x3b,
	0xb2, 0x71, 0x83, 0x58, 0xb5, 0x9e, 0x44, 0x97,
	0xba, 0xa3, 0x59, 0x70, 0xbd, 0x64, 0x96, 0x9f,
}

// hilbertSkilling is Skilling's forward transform, the oracle the state
// table is generated from and tested against.
func hilbertSkilling(x, y, z uint32, order uint) uint64 {
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

// gridCoord maps one position component to its cell on a grid of
// maxCoord+1 cells per dimension that starts at origin, where inv is cells
// per unit length. The result is clamped to the grid, so a position on the
// upper face of the gridded cube lands in the last cell.
func gridCoord(p, origin, inv float64, maxCoord uint32) uint32 {
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

// mortonIndex3D returns the Morton (Z-order) index of (x, y, z), using
// MaxOrder3D bits per dimension. Higher coordinates bits beyond MaxOrder3D
// are ignored. Bit layout: x is most significant within each 3-bit group,
// so each group is a cell's octant xbit<<2 | ybit<<1 | zbit, the digit
// HilbertIndex3D's tables are indexed by.
func mortonIndex3D(x, y, z uint32) uint64 {
	return part1By2(x)<<2 | part1By2(y)<<1 | part1By2(z)
}

// mortonCoords3D inverts mortonIndex3D.
func mortonCoords3D(m uint64) (x, y, z uint32) {
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
