package sfc

import "testing"

// FuzzHilbert3D checks the bijection property for arbitrary coordinates
// and orders, and that the table walk agrees with Skilling's transform.
func FuzzHilbert3D(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0), uint8(1))
	f.Add(uint32(1), uint32(2), uint32(3), uint8(10))
	f.Add(uint32(0x1fffff), uint32(0x1fffff), uint32(0x1fffff), uint8(21))

	f.Fuzz(func(t *testing.T, x, y, z uint32, orderRaw uint8) {
		order := uint(orderRaw%MaxOrder3D) + 1
		mask := uint32(1)<<order - 1
		x, y, z = x&mask, y&mask, z&mask
		h := HilbertIndex3D(x, y, z, order)
		if want := hilbertSkilling(x, y, z, order); h != want {
			t.Fatalf("(%d,%d,%d)@%d: table %d, Skilling %d", x, y, z, order, h, want)
		}
		if h >= uint64(1)<<(3*order) {
			t.Fatalf("index %d out of range for order %d", h, order)
		}
		gx, gy, gz := HilbertCoords3D(h, order)
		if gx != x || gy != y || gz != z {
			t.Fatalf("roundtrip (%d,%d,%d)@%d -> %d -> (%d,%d,%d)", x, y, z, order, h, gx, gy, gz)
		}
	})
}

// FuzzMorton3D checks Morton bijectivity for arbitrary 21-bit coordinates.
func FuzzMorton3D(f *testing.F) {
	f.Add(uint32(1), uint32(2), uint32(3))
	f.Fuzz(func(t *testing.T, x, y, z uint32) {
		x, y, z = x&0x1fffff, y&0x1fffff, z&0x1fffff
		gx, gy, gz := mortonCoords3D(mortonIndex3D(x, y, z))
		if gx != x || gy != y || gz != z {
			t.Fatalf("roundtrip (%d,%d,%d) -> (%d,%d,%d)", x, y, z, gx, gy, gz)
		}
	})
}
