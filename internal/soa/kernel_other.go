//go:build !amd64

package soa

// Only amd64 has a vector body; everywhere else accelGo is the kernel and
// the compiler drops the dispatch in Accel.
const useAVX = false

func accelAVX(xs, ys, zs, ms *float64, n int, xi, yi, zi, eps2 float64) (ax, ay, az, pot float64) {
	panic("soa: accelAVX without amd64")
}
