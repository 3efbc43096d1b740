package bounds

import (
	"math"
	"testing"
	"testing/quick"

	"nbody/internal/par"
	"nbody/internal/rng"
	"nbody/internal/vec"
)

func TestEmpty(t *testing.T) {
	e := Empty()
	if !e.IsEmpty() {
		t.Error("Empty() not empty")
	}
	if e.Contains(vec.Zero) {
		t.Error("empty box contains origin")
	}
}

func TestOfAndContains(t *testing.T) {
	b := Empty().Extend(vec.New(1, 2, 3)).Extend(vec.New(-1, 5, 0))
	if b.IsEmpty() {
		t.Fatal("box of two points is empty")
	}
	for _, p := range []vec.V3{{X: 1, Y: 2, Z: 3}, {X: -1, Y: 5, Z: 0}, {X: 0, Y: 3, Z: 1.5}} {
		if !b.Contains(p) {
			t.Errorf("box %v should contain %v", b, p)
		}
	}
	if b.Contains(vec.New(2, 2, 3)) {
		t.Error("box contains outside point")
	}
}

func TestUnionIdentity(t *testing.T) {
	b := Empty().Extend(vec.New(1, 1, 1)).Extend(vec.New(2, 2, 2))
	if got := b.Union(Empty()); got != b {
		t.Errorf("Union with Empty = %v, want %v", got, b)
	}
	if got := Empty().Union(b); got != b {
		t.Errorf("Empty Union b = %v, want %v", got, b)
	}
}

func TestCenterSizeExtent(t *testing.T) {
	b := AABB{Min: vec.New(0, 0, 0), Max: vec.New(2, 4, 6)}
	if got := b.Center(); got != vec.New(1, 2, 3) {
		t.Errorf("Center = %v", got)
	}
	if got := b.Size(); got != vec.New(2, 4, 6) {
		t.Errorf("Size = %v", got)
	}
	if got := b.MaxExtent(); got != 6 {
		t.Errorf("MaxExtent = %v", got)
	}
	if got := b.Diagonal(); math.Abs(got-math.Sqrt(4+16+36)) > 1e-15 {
		t.Errorf("Diagonal = %v", got)
	}
}

func TestCube(t *testing.T) {
	b := AABB{Min: vec.New(0, 0, 0), Max: vec.New(2, 4, 6)}
	c := b.Cube()
	if got := c.Size(); got != vec.New(6, 6, 6) {
		t.Errorf("Cube size = %v", got)
	}
	if c.Center() != b.Center() {
		t.Error("Cube moved the center")
	}
	if !c.ContainsBox(b) {
		t.Error("Cube does not contain original box")
	}
}

func TestPad(t *testing.T) {
	b := AABB{Min: vec.New(0, 0, 0), Max: vec.New(1, 1, 1)}.Pad(0.5)
	if b.Min != vec.New(-0.5, -0.5, -0.5) || b.Max != vec.New(1.5, 1.5, 1.5) {
		t.Errorf("Pad = %v", b)
	}
}

func TestContainsBox(t *testing.T) {
	outer := AABB{Min: vec.New(0, 0, 0), Max: vec.New(10, 10, 10)}
	inner := AABB{Min: vec.New(1, 1, 1), Max: vec.New(9, 9, 9)}
	if !outer.ContainsBox(inner) {
		t.Error("outer should contain inner")
	}
	if inner.ContainsBox(outer) {
		t.Error("inner should not contain outer")
	}
	if !outer.ContainsBox(Empty()) {
		t.Error("any box contains the empty box")
	}
}

func TestDist2(t *testing.T) {
	b := AABB{Min: vec.New(0, 0, 0), Max: vec.New(1, 1, 1)}
	if got := b.Dist2(vec.New(0.5, 0.5, 0.5)); got != 0 {
		t.Errorf("inside Dist2 = %v", got)
	}
	if got := b.Dist2(vec.New(2, 0.5, 0.5)); got != 1 {
		t.Errorf("face Dist2 = %v", got)
	}
	if got := b.Dist2(vec.New(2, 2, 2)); got != 3 {
		t.Errorf("corner Dist2 = %v", got)
	}
}

func TestOfPositions(t *testing.T) {
	src := rng.New(1)
	n := 10000
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	want := Empty()
	for i := 0; i < n; i++ {
		x[i] = src.Range(-5, 5)
		y[i] = src.Range(-100, 2)
		z[i] = src.Range(0, 1)
		want = want.Extend(vec.V3{X: x[i], Y: y[i], Z: z[i]})
	}
	for _, r := range []*par.Runtime{par.NewRuntime(1, par.Dynamic), par.NewRuntime(4, par.Static), par.NewRuntime(0, par.Guided)} {
		for _, p := range []par.Policy{par.Seq, par.Par, par.ParUnseq} {
			got := OfPositions(r, p, x, y, z)
			if got != want {
				t.Errorf("%v %v: box = %v, want %v", r, p, got, want)
			}
		}
	}
}

func TestOfPositionsEmpty(t *testing.T) {
	got := OfPositions(par.NewRuntime(4, par.Dynamic), par.ParUnseq, nil, nil, nil)
	if !got.IsEmpty() {
		t.Errorf("box of no positions = %v", got)
	}
}

// Property: Union is commutative and associative, and the union contains
// both operands.
func TestPropUnionAlgebra(t *testing.T) {
	gen := func(seed uint64) AABB {
		s := rng.New(seed)
		p1 := vec.New(s.Range(-10, 10), s.Range(-10, 10), s.Range(-10, 10))
		p2 := vec.New(s.Range(-10, 10), s.Range(-10, 10), s.Range(-10, 10))
		return Empty().Extend(p1).Extend(p2)
	}
	f := func(s1, s2, s3 uint64) bool {
		a, b, c := gen(s1), gen(s2), gen(s3)
		if a.Union(b) != b.Union(a) {
			return false
		}
		if a.Union(b).Union(c) != a.Union(b.Union(c)) {
			return false
		}
		u := a.Union(b)
		return u.ContainsBox(a) && u.ContainsBox(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: OfPositions contains every input point and touches the extremes.
func TestPropOfPositionsTight(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%2000) + 1
		s := rng.New(seed)
		x := make([]float64, n)
		y := make([]float64, n)
		z := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = s.Range(-1e3, 1e3)
			y[i] = s.Range(-1e3, 1e3)
			z[i] = s.Range(-1e3, 1e3)
		}
		b := OfPositions(par.NewRuntime(4, par.Dynamic), par.ParUnseq, x, y, z)
		loX, hiX := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			if !b.Contains(vec.V3{X: x[i], Y: y[i], Z: z[i]}) {
				return false
			}
			loX = math.Min(loX, x[i])
			hiX = math.Max(hiX, x[i])
		}
		return b.Min.X == loX && b.Max.X == hiX
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
