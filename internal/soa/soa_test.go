package soa

import (
	"math"
	"math/rand/v2"
	"testing"

	"nbody/internal/grav"
)

// refAccel is the reference: grav.Accumulate over every list entry.
func refAccel(l *List, xi, yi, zi, eps2 float64) (ax, ay, az, pot float64) {
	for j := range l.X {
		grav.Accumulate(l.X[j]-xi, l.Y[j]-yi, l.Z[j]-zi, l.M[j], eps2, &ax, &ay, &az, &pot)
	}
	return
}

func randomList(rng *rand.Rand, n int) *List {
	l := new(List)
	for i := 0; i < n; i++ {
		l.Add(rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()+0.1)
	}
	return l
}

func TestAccelMatchesGravKernel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, eps2 := range []float64{0, 1e-6} {
		l := randomList(rng, 257)
		for trial := 0; trial < 10; trial++ {
			xi, yi, zi := rng.Float64(), rng.Float64(), rng.Float64()
			ax, ay, az, ap := l.AccelPot(xi, yi, zi, eps2)
			rx, ry, rz, rp := refAccel(l, xi, yi, zi, eps2)
			if math.Abs(ax-rx) > 1e-12 || math.Abs(ay-ry) > 1e-12 || math.Abs(az-rz) > 1e-12 || math.Abs(ap-rp) > 1e-12 {
				t.Fatalf("eps2=%v: AccelPot = (%v,%v,%v; %v), reference = (%v,%v,%v; %v)", eps2, ax, ay, az, ap, rx, ry, rz, rp)
			}
		}
	}
}

// The batched loop must not need a self-exclusion branch: a source at the
// target's own position contributes exactly zero, softened or not.
func TestAccelSelfTermIsZero(t *testing.T) {
	for _, eps2 := range []float64{0, 1e-4} {
		l := new(List)
		l.Add(0.5, -0.25, 1.0, 3.0) // the "self" source
		ax, ay, az := l.Accel(0.5, -0.25, 1.0, eps2)
		if ax != 0 || ay != 0 || az != 0 {
			t.Fatalf("eps2=%v: self term contributed (%v,%v,%v), want zero", eps2, ax, ay, az)
		}
	}
}

func TestAccelRange(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	l := randomList(rng, 64)
	// Summing two parts must equal the whole, wherever the cut falls
	// relative to the kernel's blocks of four.
	ax, ay, az := l.Accel(0.1, 0.2, 0.3, 1e-6)
	for _, cut := range []int{0, 1, 3, 4, 30, 33, 61, 64} {
		ax1, ay1, az1 := Accel(l.X, l.Y, l.Z, l.M, 0, cut, 0.1, 0.2, 0.3, 1e-6)
		ax2, ay2, az2 := Accel(l.X, l.Y, l.Z, l.M, cut, 64, 0.1, 0.2, 0.3, 1e-6)
		if math.Abs(ax1+ax2-ax) > 1e-12 || math.Abs(ay1+ay2-ay) > 1e-12 || math.Abs(az1+az2-az) > 1e-12 {
			t.Fatalf("cut %d: range split (%v,%v,%v) != whole (%v,%v,%v)", cut, ax1+ax2, ay1+ay2, az1+az2, ax, ay, az)
		}
	}
}

func TestListResetAndAddBodies(t *testing.T) {
	l := GetList()
	defer PutList(l)
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 6, 7, 8}
	zs := []float64{9, 10, 11, 12}
	ms := []float64{13, 14, 15, 16}
	l.AddBodies(xs, ys, zs, ms, 1, 3)
	if l.Len() != 2 || l.X[0] != 2 || l.M[1] != 15 {
		t.Fatalf("AddBodies: got %+v", l)
	}
	l.Reset()
	if l.Len() != 0 {
		t.Fatalf("Reset left %d entries", l.Len())
	}
}

// Reserve keeps what the list holds and makes the next n entries free of
// reallocation.
func TestListReserve(t *testing.T) {
	l := new(List)
	l.Add(1, 2, 3, 4)
	l.Reserve(100)
	if l.Len() != 1 || l.X[0] != 1 || l.Y[0] != 2 || l.Z[0] != 3 || l.M[0] != 4 {
		t.Fatalf("Reserve changed the contents: %+v", l)
	}
	x, m := &l.X[0], &l.M[0]
	for i := 1; i < 100; i++ {
		l.Add(0, 0, 0, 0)
	}
	if &l.X[0] != x || &l.M[0] != m {
		t.Error("list reallocated within its reservation")
	}
	l.Reserve(50) // shorter than the capacity: nothing to do
	if &l.X[0] != x {
		t.Error("Reserve below capacity reallocated")
	}
}

// A target among its own sources adds exactly m·SelfInv(eps2) to pot —
// softened, wherever it sits relative to the blocks of four; unsoftened,
// nothing — so taking that back out leaves the potential of the others.
func TestAccelPotSelfTerm(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 20))
	const xi, yi, zi = 0.5, -0.25, 1.0
	for _, eps2 := range []float64{0, 1e-4} {
		for _, n := range []int{1, 4, 7, 13} {
			for k := 0; k < n; k++ {
				l := randomList(rng, n)
				l.X[k], l.Y[k], l.Z[k] = xi, yi, zi
				_, _, _, pot := l.AccelPot(xi, yi, zi, eps2)
				self := l.M[k] * SelfInv(eps2)
				l.M[k] = 0
				_, _, _, others := l.AccelPot(xi, yi, zi, eps2)
				if d := math.Abs(pot - self - others); d > 1e-13*pot {
					t.Fatalf("eps2=%v n=%d self at %d: pot %v - self %v = %v, others %v", eps2, n, k, pot, self, pot-self, others)
				}
			}
		}
	}
	if SelfInv(0) != 0 || SelfInv(0.25) != 2 {
		t.Fatalf("SelfInv(0) = %v, SelfInv(0.25) = %v; want 0 and 2", SelfInv(0), SelfInv(0.25))
	}
}
