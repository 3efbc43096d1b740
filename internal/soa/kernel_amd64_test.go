package soa

import (
	"math/rand/v2"
	"testing"
)

// withKernel runs f with the dispatch forced to the vector body (avx true)
// or to the portable loop, restoring the machine's choice afterwards.
func withKernel(t *testing.T, avx bool, f func()) {
	t.Helper()
	saved := useAVX
	defer func() { useAVX = saved }()
	useAVX = avx
	f()
}

// The potential the vector body returns is the portable loop's up to the
// order of the sum, as the acceleration is, and the acceleration itself is
// the same bits whether or not the potential is asked for: AccelPot under
// the avx dispatch against AccelPot under the go dispatch, on every length
// and offset around a block.
func TestAccelPotAVXMatchesGo(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX on this machine")
	}
	rng := rand.New(rand.NewPCG(17, 18))
	l := randomList(rng, 67+3)
	for n := 0; n <= 67; n++ {
		for lo := 0; lo <= 3; lo++ {
			xi, yi, zi := rng.Float64(), rng.Float64(), rng.Float64()
			const eps2 = 1e-6
			var vx, vy, vz, vp, gx, gy, gz, gp float64
			withKernel(t, true, func() { vx, vy, vz, vp = AccelPot(l.X, l.Y, l.Z, l.M, lo, lo+n, xi, yi, zi, eps2) })
			withKernel(t, false, func() { gx, gy, gz, gp = AccelPot(l.X, l.Y, l.Z, l.M, lo, lo+n, xi, yi, zi, eps2) })
			sx, sy, sz, sp := termSums(l.X[lo:lo+n], l.Y[lo:lo+n], l.Z[lo:lo+n], l.M[lo:lo+n], xi, yi, zi, eps2)
			if !agree(vx, gx, sx, n) || !agree(vy, gy, sy, n) || !agree(vz, gz, sz, n) || !agree(vp, gp, sp, n) {
				t.Fatalf("n=%d lo=%d: avx (%v,%v,%v; %v), go (%v,%v,%v; %v)", n, lo, vx, vy, vz, vp, gx, gy, gz, gp)
			}
			if n < 4 && (vx != gx || vy != gy || vz != gz || vp != gp) {
				t.Fatalf("n=%d lo=%d: below one block both dispatches run the go loop, yet differ", n, lo)
			}
			ax, ay, az := Accel(l.X, l.Y, l.Z, l.M, lo, lo+n, xi, yi, zi, eps2)
			if ax != vx || ay != vy || az != vz {
				t.Fatalf("n=%d lo=%d: Accel (%v,%v,%v) != AccelPot (%v,%v,%v)", n, lo, ax, ay, az, vx, vy, vz)
			}
		}
	}
}
