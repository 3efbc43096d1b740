package soa

import (
	"math"
	"math/rand/v2"
	"testing"
)

// The tests here hold the dispatched kernel (AccelPot) to the portable loop
// (accelGo, called directly). On a machine where Kernel() is "go" the two
// are the same code and every comparison is trivially exact.

// termSums returns Σ|f·d| per component and Σ|m/r| over the softened terms —
// the scale against which a difference in summation order is measured.
func termSums(xs, ys, zs, ms []float64, xi, yi, zi, eps2 float64) (sx, sy, sz, sp float64) {
	for j := range xs {
		tx, ty, tz, tp := accelGo(xs[j:j+1], ys[j:j+1], zs[j:j+1], ms[j:j+1], xi, yi, zi, eps2)
		sx += math.Abs(tx)
		sy += math.Abs(ty)
		sz += math.Abs(tz)
		sp += math.Abs(tp)
	}
	return
}

// agree reports whether got is want up to a reordering of a sum of n terms
// whose absolute values total scale. Each order errs by at most
// (depth)·2⁻⁵³·scale with depth < n, so the two differ by less than
// n·2⁻⁵²·scale; typical differences are a few 2⁻⁵². Non-finite values must
// match in class.
func agree(got, want, scale float64, n int) bool {
	switch {
	case math.IsNaN(want):
		return math.IsNaN(got)
	case math.IsInf(want, 0):
		return got == want
	}
	return math.Abs(got-want) <= float64(n)*0x1p-52*scale
}

func checkAgainstGo(t testing.TB, xs, ys, zs, ms []float64, lo, hi int, xi, yi, zi, eps2 float64) {
	t.Helper()
	ax, ay, az, ap := AccelPot(xs, ys, zs, ms, lo, hi, xi, yi, zi, eps2)
	gx, gy, gz, gp := accelGo(xs[lo:hi], ys[lo:hi], zs[lo:hi], ms[lo:hi], xi, yi, zi, eps2)
	sx, sy, sz, sp := termSums(xs[lo:hi], ys[lo:hi], zs[lo:hi], ms[lo:hi], xi, yi, zi, eps2)
	if n := hi - lo; !agree(ax, gx, sx, n) || !agree(ay, gy, sy, n) || !agree(az, gz, sz, n) || !agree(ap, gp, sp, n) {
		t.Fatalf("[%d,%d) eps2=%v at (%v,%v,%v): %s kernel (%v,%v,%v; %v), go loop (%v,%v,%v; %v), Σ|term| (%v,%v,%v; %v)",
			lo, hi, eps2, xi, yi, zi, Kernel(), ax, ay, az, ap, gx, gy, gz, gp, sx, sy, sz, sp)
	}
}

func TestAccelMatchesGoEveryLengthAndOffset(t *testing.T) {
	t.Logf("kernel: %s", Kernel())
	rng := rand.New(rand.NewPCG(5, 6))
	l := randomList(rng, 67+3)
	for n := 0; n <= 67; n++ {
		for lo := 0; lo <= 3; lo++ { // &xs[lo] is 8-byte, not 32-byte, aligned
			xi, yi, zi := rng.Float64(), rng.Float64(), rng.Float64()
			checkAgainstGo(t, l.X, l.Y, l.Z, l.M, lo, lo+n, xi, yi, zi, 1e-6)

			// Without softening, and below one block, the Go loop is the
			// only path: bit equality.
			exact := []float64{0}
			if n < 4 {
				exact = append(exact, 1e-6)
			}
			for _, eps2 := range exact {
				ax, ay, az, ap := AccelPot(l.X, l.Y, l.Z, l.M, lo, lo+n, xi, yi, zi, eps2)
				gx, gy, gz, gp := accelGo(l.X[lo:lo+n], l.Y[lo:lo+n], l.Z[lo:lo+n], l.M[lo:lo+n], xi, yi, zi, eps2)
				if ax != gx || ay != gy || az != gz || ap != gp {
					t.Fatalf("n=%d lo=%d eps2=%v: (%v,%v,%v; %v) != go loop (%v,%v,%v; %v)", n, lo, eps2, ax, ay, az, ap, gx, gy, gz, gp)
				}
			}
		}
	}
}

// Each vector lane must hold bit for bit the terms the Go loop computes:
// with every other source massless (an exact ±0 term), the one live source
// decides the whole sum, of the acceleration and of the potential.
func TestAccelLaneTermIsExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for trial := 0; trial < 200; trial++ {
		l := randomList(rng, 8)
		xi, yi, zi := rng.Float64(), rng.Float64(), rng.Float64()
		eps2 := math.Pow(10, -8*rng.Float64())
		for k := range l.M {
			ms := make([]float64, len(l.M))
			ms[k] = l.M[k]
			ax, ay, az, ap := AccelPot(l.X, l.Y, l.Z, ms, 0, 8, xi, yi, zi, eps2)
			gx, gy, gz, gp := accelGo(l.X, l.Y, l.Z, ms, xi, yi, zi, eps2)
			if ax != gx || ay != gy || az != gz || ap != gp {
				t.Fatalf("source %d: %s kernel (%v,%v,%v; %v) != go loop (%v,%v,%v; %v)", k, Kernel(), ax, ay, az, ap, gx, gy, gz, gp)
			}
		}
	}
}

// A source at the target's own position contributes exactly zero wherever
// it sits: in each of the four lanes of a block and in the scalar tail.
func TestAccelSelfTermIsZeroInEveryLane(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	const n = 7 // one block + a three-source tail
	const xi, yi, zi, eps2 = 0.5, -0.25, 1.0, 1e-4
	for k := 0; k < n; k++ {
		l := randomList(rng, n)
		l.X[k], l.Y[k], l.Z[k] = xi, yi, zi
		ax, ay, az := l.Accel(xi, yi, zi, eps2)
		l.M[k] = 0 // a massless source is an exact zero term by construction
		bx, by, bz := l.Accel(xi, yi, zi, eps2)
		if ax != bx || ay != by || az != bz {
			t.Fatalf("self source at %d moved the sum: (%v,%v,%v) vs (%v,%v,%v)", k, ax, ay, az, bx, by, bz)
		}
	}
	l := new(List)
	for k := 0; k < n; k++ {
		l.Add(xi, yi, zi, 3)
	}
	if ax, ay, az := l.Accel(xi, yi, zi, eps2); ax != 0 || ay != 0 || az != 0 {
		t.Fatalf("%d self sources contributed (%v,%v,%v), want zero", n, ax, ay, az)
	}
}

// Non-finite and extreme coordinates, in every lane, in the tail and at
// the target, give the same class of result on both paths (NaN, ±Inf, or
// finite and equal up to summation order).
func TestAccelExtremeInputsMatchGo(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	extremes := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1e150, -1e150, 1e-150, 5e-324, math.MaxFloat64}
	const n = 11
	for _, v := range extremes {
		for k := 0; k < n; k++ {
			l := randomList(rng, n)
			l.X[k] = v
			checkAgainstGo(t, l.X, l.Y, l.Z, l.M, 0, n, 0.1, 0.2, 0.3, 1e-6)
			l.Y[k], l.Z[k] = v, -v
			checkAgainstGo(t, l.X, l.Y, l.Z, l.M, 0, n, 0.1, 0.2, 0.3, 1e-6)
			l.M[k] = v
			checkAgainstGo(t, l.X, l.Y, l.Z, l.M, 0, n, 0.1, 0.2, 0.3, 1e-6)
		}
		l := randomList(rng, n)
		checkAgainstGo(t, l.X, l.Y, l.Z, l.M, 0, n, v, 0.2, 0.3, 1e-6)
		checkAgainstGo(t, l.X, l.Y, l.Z, l.M, 0, n, 0.1, 0.2, 0.3, math.Abs(v))
	}
}

func FuzzAccelMatchesGo(f *testing.F) {
	f.Add(uint64(1), uint8(67), uint8(1), 0.1, 0.2, 0.3, 1e-6)
	f.Add(uint64(2), uint8(4), uint8(0), math.Inf(1), 0.0, 0.0, 1e-300)
	f.Add(uint64(3), uint8(255), uint8(3), 1e150, -1e150, 0.0, 5e-324)
	f.Fuzz(func(t *testing.T, seed uint64, n, lo uint8, xi, yi, zi, eps2 float64) {
		rng := rand.New(rand.NewPCG(seed, 0))
		l := new(List)
		for i := 0; i < int(lo)+int(n); i++ {
			// Spread magnitudes over many decades, both signs.
			c := func() float64 { return (rng.Float64()*2 - 1) * math.Pow(10, 40*rng.Float64()-20) }
			l.Add(c(), c(), c(), rng.Float64()*math.Pow(10, 40*rng.Float64()-20))
		}
		sx, sy, sz, sp := termSums(l.X[lo:], l.Y[lo:], l.Z[lo:], l.M[lo:], xi, yi, zi, eps2)
		if s := sx + sy + sz + sp; !math.IsInf(s, 0) && s > 1e300 {
			t.Skip("finite terms whose partial sums may overflow in one order only")
		}
		checkAgainstGo(t, l.X, l.Y, l.Z, l.M, int(lo), int(lo)+int(n), xi, yi, zi, eps2)
	})
}

// The force phase calls the kernel once per body per step: it must not
// allocate on either path.
func TestAccelDoesNotAllocate(t *testing.T) {
	l := randomList(rand.New(rand.NewPCG(13, 14)), 67)
	var sink float64
	for name, fn := range map[string]func(){
		"List.Accel": func() { sink, _, _ = l.Accel(0.1, 0.2, 0.3, 1e-6) },
		"AccelPot":   func() { sink, _, _, _ = AccelPot(l.X, l.Y, l.Z, l.M, 1, 66, 0.1, 0.2, 0.3, 1e-6) },
		"Accel":      func() { sink, _, _ = Accel(l.X, l.Y, l.Z, l.M, 1, 66, 0.1, 0.2, 0.3, 1e-6) },
		"Accel eps0": func() { sink, _, _ = Accel(l.X, l.Y, l.Z, l.M, 1, 66, 0.1, 0.2, 0.3, 0) },
		"accelGo":    func() { sink, _, _, _ = accelGo(l.X, l.Y, l.Z, l.M, 0.1, 0.2, 0.3, 1e-6) },
	} {
		if a := testing.AllocsPerRun(100, fn); a != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, a)
		}
	}
	_ = sink
}

// BenchmarkAccel reports ns per interaction of the portable loop and of the
// kernel Accel dispatches to on this machine, on an L1-resident list.
func BenchmarkAccel(b *testing.B) {
	const n = 512
	l := randomList(rand.New(rand.NewPCG(15, 16)), n)
	run := func(b *testing.B, kernel func() (ax, ay, az float64)) {
		for b.Loop() {
			kernel()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/interaction")
	}
	b.Run("go", func(b *testing.B) {
		run(b, func() (ax, ay, az float64) {
			ax, ay, az, _ = accelGo(l.X, l.Y, l.Z, l.M, 0.1, 0.2, 0.3, 1e-6)
			return
		})
	})
	b.Run("dispatch="+Kernel(), func(b *testing.B) {
		run(b, func() (ax, ay, az float64) { return l.Accel(0.1, 0.2, 0.3, 1e-6) })
	})
}
