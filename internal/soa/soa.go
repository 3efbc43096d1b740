// Package soa holds the flat structure-of-arrays machinery of the force
// hot path: interaction lists and the tight kernel that evaluates them.
//
// The tree solvers separate *traversal* from *evaluation*: one walk per
// body group collects every accepted far-field node (as a point mass at
// its center of mass) and every near-field leaf body into a List — four
// dense float64 slices — and a second pass evaluates each body of the
// group against the list in a branch-free inner loop the compiler can keep
// in registers, and which on amd64 is vectorized by hand (kernel_amd64.s;
// Go's compiler does not vectorize). This is the interaction-list batching of
// Tokuue & Ishiyama's many-core tree code and Bédorf et al.'s GPU octree
// (and of the SpeedCodeBench flat-array reference), adapted to the
// repository's grav.Params contract: the kernel excludes G (callers hoist
// it) and takes ε² pre-squared.
//
// Self-interactions need no index test in the batched loop: a zero offset
// contributes exactly zero acceleration under the kernel convention
// (softened: f·d with d = 0; unsoftened: the r² == 0 guard), so a group
// body appearing in its own near field is harmless. This is what lets the
// inner loop drop the `source == target` branch the per-body walk kernels
// carry. The potential sum the kernel returns beside the acceleration does
// see the self term, m/ε when softened; SelfInv gives callers the factor to
// take it back out.
package soa

import (
	"math"
	"sync"
)

// List is a flat interaction list: the far-field pseudo-particles and
// near-field bodies one group of targets interacts with, in structure-of-
// arrays layout. The zero value is ready to use; Reset keeps capacity
// across walks.
type List struct {
	X, Y, Z, M []float64
}

// Reset empties the list, retaining capacity.
func (l *List) Reset() {
	l.X, l.Y, l.Z, l.M = l.X[:0], l.Y[:0], l.Z[:0], l.M[:0]
}

// Reserve makes room for n interactions without reallocating, leaving a
// quarter of headroom when it has to grow. A walk that knows how long its
// longest list has been calls it so that every pooled list does not have to
// find that out, and grow into it step by step, on its own.
func (l *List) Reserve(n int) {
	if n <= cap(l.X) {
		return
	}
	n += n / 4
	grow := func(s []float64) []float64 { return append(make([]float64, 0, n), s...) }
	l.X, l.Y, l.Z, l.M = grow(l.X), grow(l.Y), grow(l.Z), grow(l.M)
}

// Len returns the number of interactions collected.
func (l *List) Len() int { return len(l.X) }

// Add appends one source: a body, or an accepted node's center of mass.
func (l *List) Add(x, y, z, m float64) {
	l.X = append(l.X, x)
	l.Y = append(l.Y, y)
	l.Z = append(l.Z, z)
	l.M = append(l.M, m)
}

// AddBodies bulk-appends the contiguous body range [lo, hi) of flat
// component arrays — the near-field fast path for leaves covering body
// ranges.
func (l *List) AddBodies(xs, ys, zs, ms []float64, lo, hi int) {
	l.X = append(l.X, xs[lo:hi]...)
	l.Y = append(l.Y, ys[lo:hi]...)
	l.Z = append(l.Z, zs[lo:hi]...)
	l.M = append(l.M, ms[lo:hi]...)
}

// Accel returns the acceleration the whole list induces at (xi, yi, zi),
// excluding the factor G per the grav.Accumulate contract.
func (l *List) Accel(xi, yi, zi, eps2 float64) (ax, ay, az float64) {
	ax, ay, az, _ = l.AccelPot(xi, yi, zi, eps2)
	return
}

// AccelPot is Accel that also returns pot, the list's Σ mⱼ/rⱼ at the
// target (see AccelPot).
func (l *List) AccelPot(xi, yi, zi, eps2 float64) (ax, ay, az, pot float64) {
	return AccelPot(l.X, l.Y, l.Z, l.M, 0, len(l.X), xi, yi, zi, eps2)
}

// Accel is AccelPot without the potential: the acceleration (excluding G)
// that sources [lo, hi) of the flat arrays xs/ys/zs/ms induce at (xi, yi, zi).
func Accel(xs, ys, zs, ms []float64, lo, hi int, xi, yi, zi, eps2 float64) (ax, ay, az float64) {
	ax, ay, az, _ = AccelPot(xs, ys, zs, ms, lo, hi, xi, yi, zi, eps2)
	return
}

// AccelPot is the shared tight kernel: the acceleration (excluding G) that
// sources [lo, hi) of the flat arrays xs/ys/zs/ms induce at (xi, yi, zi),
// and pot = Σ mⱼ/√(rⱼ² + ε²) over the same sources, so the potential there
// is −G·pot. pot sums the product mⱼ·(1/r) the force term starts from, so
// it costs one add per source and leaves the acceleration bit for bit as
// it was. A source at the target's own position adds nothing unsoftened
// (the r² == 0 guard) and m·SelfInv(eps2) softened.
//
// accelGo defines the result. Where the machine has AVX (see Kernel) the
// softened branch runs whole blocks of four sources through accelAVX, which
// computes bit for bit accelGo's term for every source and differs only in
// the order the terms are summed; the len%4 tail and the eps2 == 0 branch
// stay on accelGo.
func AccelPot(xs, ys, zs, ms []float64, lo, hi int, xi, yi, zi, eps2 float64) (ax, ay, az, pot float64) {
	xs, ys, zs, ms = xs[lo:hi], ys[lo:hi], zs[lo:hi], ms[lo:hi]
	if n4 := len(xs) &^ 3; useAVX && eps2 > 0 && n4 > 0 {
		ax, ay, az, pot = accelAVX(&xs[0], &ys[0], &zs[0], &ms[0], n4, xi, yi, zi, eps2)
		tx, ty, tz, tp := accelGo(xs[n4:], ys[n4:], zs[n4:], ms[n4:], xi, yi, zi, eps2)
		return ax + tx, ay + ty, az + tz, pot + tp
	}
	return accelGo(xs, ys, zs, ms, xi, yi, zi, eps2)
}

// SelfInv is the 1/r the kernel gives a target that is among its own
// sources: 1/ε when softened, 0 unsoftened, where the r² == 0 guard drops
// the term. A caller whose list holds the target subtracts m·SelfInv(eps2)
// from pot.
func SelfInv(eps2 float64) float64 {
	if eps2 > 0 {
		return 1 / math.Sqrt(eps2)
	}
	return 0
}

// Kernel names the arithmetic behind Accel on this machine: "avx" when the
// softened branch runs the amd64 vector body, "go" when every interaction
// goes through the portable loop. A trajectory is reproducible bit for bit
// per kernel, as it is per GOARCH: the two sum the same terms in a
// different order.
func Kernel() string {
	if useAVX {
		return "avx"
	}
	return "go"
}

// accelGo is the portable kernel and the reference the vector body is
// tested against; all four slices have equal length. With softening the
// loop is branch-free — r² ≥ ε² > 0 makes the guard of grav.Accumulate
// provably dead, so it is hoisted into the eps2 == 0 variant instead of
// being tested per interaction.
func accelGo(xs, ys, zs, ms []float64, xi, yi, zi, eps2 float64) (ax, ay, az, pot float64) {
	ys, zs, ms = ys[:len(xs)], zs[:len(xs)], ms[:len(xs)]
	if eps2 > 0 {
		for j := range xs {
			dx := xs[j] - xi
			dy := ys[j] - yi
			dz := zs[j] - zi
			r2 := dx*dx + dy*dy + dz*dz + eps2
			inv := 1 / math.Sqrt(r2)
			mi := ms[j] * inv
			f := mi * inv * inv
			ax += f * dx
			ay += f * dy
			az += f * dz
			pot += mi
		}
		return
	}
	for j := range xs {
		dx := xs[j] - xi
		dy := ys[j] - yi
		dz := zs[j] - zi
		r2 := dx*dx + dy*dy + dz*dz
		if r2 == 0 {
			continue
		}
		inv := 1 / math.Sqrt(r2)
		mi := ms[j] * inv
		f := mi * inv * inv
		ax += f * dx
		ay += f * dy
		az += f * dz
		pot += mi
	}
	return
}

// pool recycles lists across group walks. The parallel runtime exposes no
// worker identity to loop bodies, so per-walk scratch goes through a
// sync.Pool instead of per-worker arenas.
var pool = sync.Pool{New: func() any { return new(List) }}

// GetList returns an empty list from the pool.
func GetList() *List {
	l := pool.Get().(*List)
	l.Reset()
	return l
}

// PutList returns a list to the pool.
func PutList(l *List) { pool.Put(l) }
