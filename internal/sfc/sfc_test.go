package sfc

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"nbody/internal/rng"
)

func TestHilbert3DRoundTrip(t *testing.T) {
	for _, order := range []uint{1, 2, 3, 5, 10, 21} {
		s := rng.New(uint64(order))
		mask := uint32(1)<<order - 1
		for i := 0; i < 2000; i++ {
			x := uint32(s.Uint64()) & mask
			y := uint32(s.Uint64()) & mask
			z := uint32(s.Uint64()) & mask
			h := HilbertIndex3D(x, y, z, order)
			if h >= uint64(1)<<(3*order) {
				t.Fatalf("order %d: index %d exceeds 2^(3*%d)", order, h, order)
			}
			gx, gy, gz := HilbertCoords3D(h, order)
			if gx != x || gy != y || gz != z {
				t.Fatalf("order %d: roundtrip (%d,%d,%d) -> %d -> (%d,%d,%d)", order, x, y, z, h, gx, gy, gz)
			}
		}
	}
}

// The defining property of the Hilbert curve: consecutive indices map to
// cells exactly one unit apart in exactly one dimension.
func TestHilbert3DUnitSteps(t *testing.T) {
	const order = 3 // exhaustively walk all 512 cells
	total := uint64(1) << (3 * order)
	px, py, pz := HilbertCoords3D(0, order)
	for h := uint64(1); h < total; h++ {
		x, y, z := HilbertCoords3D(h, order)
		d := absDiff(x, px) + absDiff(y, py) + absDiff(z, pz)
		if d != 1 {
			t.Fatalf("step %d: (%d,%d,%d)->(%d,%d,%d) manhattan distance %d", h, px, py, pz, x, y, z, d)
		}
		px, py, pz = x, y, z
	}
}

// The curve must be a bijection: exhaustively check all cells at a small
// order map to distinct indices covering [0, 8^order).
func TestHilbert3DBijection(t *testing.T) {
	const order = 2
	side := uint32(1) << order
	seen := make([]bool, 1<<(3*order))
	for x := uint32(0); x < side; x++ {
		for y := uint32(0); y < side; y++ {
			for z := uint32(0); z < side; z++ {
				h := HilbertIndex3D(x, y, z, order)
				if seen[h] {
					t.Fatalf("duplicate index %d for (%d,%d,%d)", h, x, y, z)
				}
				seen[h] = true
			}
		}
	}
}

func TestHilbertOrder1Is2x2x2GrayWalk(t *testing.T) {
	// At order 1 the Hilbert curve visits the 8 octants in a Gray-code
	// sequence: verify unit steps and bijection.
	seen := make(map[uint64]bool)
	px, py, pz := HilbertCoords3D(0, 1)
	for h := uint64(0); h < 8; h++ {
		x, y, z := HilbertCoords3D(h, 1)
		if x > 1 || y > 1 || z > 1 {
			t.Fatalf("coords out of 2x2x2: (%d,%d,%d)", x, y, z)
		}
		if seen[uint64(x)<<2|uint64(y)<<1|uint64(z)] {
			t.Fatal("octant visited twice")
		}
		seen[uint64(x)<<2|uint64(y)<<1|uint64(z)] = true
		if h > 0 && absDiff(x, px)+absDiff(y, py)+absDiff(z, pz) != 1 {
			t.Fatalf("order-1 step %d not unit", h)
		}
		px, py, pz = x, y, z
	}
}

// hilbertTablesFromSkilling derives the key's state machine from Skilling's
// transform. A state is identified by how the curve numbers the eight
// octants of a cell (octant → digit); inside a cell the curve is a rotated
// or reflected copy of the whole, so a child cell's state follows from its
// parent's state and its octant. States are numbered in breadth-first order
// of discovery from the root of the order-21 curve, octants in Morton order;
// the root of every order must be state 0.
func hilbertTableFromSkilling(t *testing.T) (table [256]uint8) {
	type cell struct {
		x, y, z uint32 // the cell's coordinate prefix
		level   uint
	}
	child := func(c cell, oct uint32) cell {
		return cell{c.x<<1 | oct>>2, c.y<<1 | oct>>1&1, c.z<<1 | oct&1, c.level + 1}
	}
	digits := func(c cell, order uint) (d [8]uint8) {
		shift := order - c.level - 1
		for oct := uint32(0); oct < 8; oct++ {
			k := child(c, oct)
			h := hilbertSkilling(k.x<<shift, k.y<<shift, k.z<<shift, order)
			d[oct] = uint8(h >> (3 * shift) & 7)
		}
		return d
	}
	ids := map[[8]uint8]int{}
	var cells []cell // cells[id] is where state id was first seen
	id := func(c cell) int {
		d := digits(c, MaxOrder3D)
		if k, ok := ids[d]; ok {
			return k
		}
		ids[d] = len(cells)
		cells = append(cells, c)
		return ids[d]
	}
	id(cell{})
	for k := 0; k < len(cells); k++ {
		c := cells[k]
		if c.level+2 >= MaxOrder3D {
			t.Fatalf("state %d first seen at level %d: too deep to read its children", k, c.level)
		}
		d := digits(c, MaxOrder3D)
		for oct := uint32(0); oct < 8; oct++ {
			table[k<<3|int(oct)] = uint8(id(child(c, oct))<<3) | d[oct]
		}
	}
	if len(cells) != 24 {
		t.Fatalf("%d states, want 24", len(cells))
	}
	for order := uint(1); order <= MaxOrder3D; order++ {
		if k, ok := ids[digits(cell{}, order)]; !ok || k != 0 {
			t.Fatalf("order %d: root cell is not in state 0", order)
		}
	}
	return table
}

func TestHilbertTableFromSkilling(t *testing.T) {
	table := hilbertTableFromSkilling(t)
	if table == hilbertTable {
		return
	}
	var b strings.Builder
	b.WriteString("var hilbertTable = [256]uint8{\n")
	for s := 0; s < 24; s++ {
		b.WriteString("\t")
		for oct := 0; oct < 8; oct++ {
			fmt.Fprintf(&b, "0x%02x, ", table[s<<3|oct])
		}
		b.WriteString("\n")
	}
	b.WriteString("}\n")
	t.Errorf("committed table differs from Skilling's transform; regenerated:\n%s", b.String())
}

// The table walk must reproduce Skilling's keys at every order, odd ones
// (a single-level step, then two levels a lookup) and even ones (two levels
// a lookup throughout): every cell at orders 1–4, and 10⁵ random cells at
// each order above.
func TestHilbertTableMatchesSkilling(t *testing.T) {
	for order := uint(1); order <= 4; order++ {
		side := uint32(1) << order
		for x := uint32(0); x < side; x++ {
			for y := uint32(0); y < side; y++ {
				for z := uint32(0); z < side; z++ {
					if got, want := HilbertIndex3D(x, y, z, order), hilbertSkilling(x, y, z, order); got != want {
						t.Fatalf("order %d (%d,%d,%d): table %d, Skilling %d", order, x, y, z, got, want)
					}
				}
			}
		}
	}
	for order := uint(5); order <= MaxOrder3D; order++ {
		s := rng.New(uint64(order) + 100)
		mask := uint32(1)<<order - 1
		for i := 0; i < 100_000; i++ {
			x := uint32(s.Uint64()) & mask
			y := uint32(s.Uint64()) & mask
			z := uint32(s.Uint64()) & mask
			if got, want := HilbertIndex3D(x, y, z, order), hilbertSkilling(x, y, z, order); got != want {
				t.Fatalf("order %d (%d,%d,%d): table %d, Skilling %d", order, x, y, z, got, want)
			}
		}
	}
}

func TestHilbertOrderPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { HilbertIndex3D(0, 0, 0, 0) },
		func() { HilbertIndex3D(0, 0, 0, 22) },
		func() { HilbertCoords3D(0, 22) },
		func() { HilbertCoords3D(0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid order did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestMorton3DRoundTrip(t *testing.T) {
	s := rng.New(7)
	for i := 0; i < 5000; i++ {
		x := uint32(s.Uint64()) & 0x1fffff
		y := uint32(s.Uint64()) & 0x1fffff
		z := uint32(s.Uint64()) & 0x1fffff
		gx, gy, gz := mortonCoords3D(mortonIndex3D(x, y, z))
		if gx != x || gy != y || gz != z {
			t.Fatalf("roundtrip (%d,%d,%d) -> (%d,%d,%d)", x, y, z, gx, gy, gz)
		}
	}
}

func TestMortonKnownValues(t *testing.T) {
	// Interleaving of single set bits.
	if got := mortonIndex3D(1, 0, 0); got != 4 {
		t.Errorf("mortonIndex3D(1,0,0) = %d, want 4", got)
	}
	if got := mortonIndex3D(0, 1, 0); got != 2 {
		t.Errorf("mortonIndex3D(0,1,0) = %d, want 2", got)
	}
	if got := mortonIndex3D(0, 0, 1); got != 1 {
		t.Errorf("mortonIndex3D(0,0,1) = %d, want 1", got)
	}
	if got := mortonIndex3D(1, 1, 1); got != 7 {
		t.Errorf("mortonIndex3D(1,1,1) = %d, want 7", got)
	}
	if got := mortonIndex3D(2, 0, 0); got != 32 {
		t.Errorf("mortonIndex3D(2,0,0) = %d, want 32", got)
	}
}

// Each 3-bit group of the interleave must be the octant the Hilbert tables
// are indexed by (and the concurrent octree's child slot): the index of a
// cell within its parent 2x2x2 block is xbit<<2 | ybit<<1 | zbit.
func TestMortonChildOrder(t *testing.T) {
	for x := uint32(0); x < 2; x++ {
		for y := uint32(0); y < 2; y++ {
			for z := uint32(0); z < 2; z++ {
				want := uint64(x<<2 | y<<1 | z)
				if got := mortonIndex3D(x, y, z); got != want {
					t.Errorf("mortonIndex3D(%d,%d,%d) = %d, want %d", x, y, z, got, want)
				}
			}
		}
	}
}

// Property: Morton order of two points is determined by the highest
// differing coordinate bit, so each 3-bit group is one level's octant.
func TestPropMortonMonotoneInSingleAxis(t *testing.T) {
	f := func(xr, yr, zr uint32) bool {
		x := xr & 0x1ffffe // leave room for +1
		y := yr & 0x1fffff
		z := zr & 0x1fffff
		return mortonIndex3D(x+1, y, z) > mortonIndex3D(x, y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Hilbert index of random coordinates always roundtrips at max
// order.
func TestPropHilbertRoundTrip(t *testing.T) {
	f := func(xr, yr, zr uint32) bool {
		x, y, z := xr&0x1fffff, yr&0x1fffff, zr&0x1fffff
		gx, gy, gz := HilbertCoords3D(HilbertIndex3D(x, y, z, MaxOrder3D), MaxOrder3D)
		return gx == x && gy == y && gz == z
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Locality sanity: points close in space should on average be closer along
// the Hilbert curve than along the Morton curve is not guaranteed pointwise,
// but the curve must at least keep each octant's cells in a contiguous index
// range at every order (a property both curves share and trees rely on).
func TestHilbertOctantContiguity(t *testing.T) {
	const order = 3
	side := uint32(1) << order
	half := side / 2
	// Collect indices per octant and verify each octant occupies exactly
	// one contiguous 1/8 slice of the index range.
	counts := map[int][2]uint64{} // octant -> min,max
	for x := uint32(0); x < side; x++ {
		for y := uint32(0); y < side; y++ {
			for z := uint32(0); z < side; z++ {
				oct := int(boolToU(x >= half)<<2 | boolToU(y >= half)<<1 | boolToU(z >= half))
				h := HilbertIndex3D(x, y, z, order)
				mm, ok := counts[oct]
				if !ok {
					counts[oct] = [2]uint64{h, h}
					continue
				}
				if h < mm[0] {
					mm[0] = h
				}
				if h > mm[1] {
					mm[1] = h
				}
				counts[oct] = mm
			}
		}
	}
	cellsPerOct := uint64(1) << (3*order - 3)
	for oct, mm := range counts {
		if mm[1]-mm[0]+1 != cellsPerOct {
			t.Errorf("octant %d spans [%d,%d], not contiguous %d cells", oct, mm[0], mm[1], cellsPerOct)
		}
	}
}

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

func boolToU(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func BenchmarkHilbertIndex3D(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += HilbertIndex3D(uint32(i)&0x1fffff, uint32(i*7)&0x1fffff, uint32(i*13)&0x1fffff, MaxOrder3D)
	}
	_ = sink
}

func BenchmarkMortonIndex3D(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += mortonIndex3D(uint32(i)&0x1fffff, uint32(i*7)&0x1fffff, uint32(i*13)&0x1fffff)
	}
	_ = sink
}
