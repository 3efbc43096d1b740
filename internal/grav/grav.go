// Package grav holds the pairwise gravitational interaction kernel shared by
// every force solver in the repository (All-Pairs, Concurrent Octree,
// Hilbert BVH), plus the simulation parameters that govern it.
//
// The force law is Equation 1 of the paper with Plummer softening: the
// acceleration induced on a body at x by a point mass m at y is
//
//	a = G · m · (y - x) / (|y - x|² + ε²)^(3/2)
//
// Softening (ε > 0) removes the singularity when two bodies coincide, which
// any finite-timestep integration of a collisional workload needs; ε = 0
// recovers the exact Newtonian law.
package grav

import (
	"errors"
	"fmt"
	"math"
)

// Params bundles the physical and accuracy parameters of a force
// calculation.
type Params struct {
	// G is the gravitational constant in simulation units.
	G float64
	// Eps is the Plummer softening length ε.
	Eps float64
	// Theta is the Barnes-Hut opening threshold: a tree node of size s at
	// distance d is approximated by its multipole when s/d < Theta.
	// Theta = 0 forces exact (all-pairs-equivalent) evaluation.
	Theta float64
}

// DefaultParams returns the parameters used by the paper's evaluation:
// θ = 0.5, G = 1 (dimensionless simulation units), and a small softening
// suitable for the galaxy workload.
func DefaultParams() Params {
	return Params{G: 1, Eps: 1e-3, Theta: 0.5}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if math.IsNaN(p.G) || math.IsInf(p.G, 0) {
		return fmt.Errorf("grav: invalid G %v", p.G)
	}
	if p.Eps < 0 || math.IsNaN(p.Eps) || math.IsInf(p.Eps, 0) {
		return fmt.Errorf("grav: invalid softening %v", p.Eps)
	}
	if p.Theta < 0 || math.IsNaN(p.Theta) || math.IsInf(p.Theta, 0) {
		return errors.New("grav: theta must be finite and non-negative")
	}
	return nil
}

// Eps2 returns ε².
func (p Params) Eps2() float64 { return p.Eps * p.Eps }

// Accumulate adds to (ax, ay, az) the acceleration a point mass m at offset
// (dx, dy, dz) from the target body induces, and to pot the term m/r of the
// potential there, both excluding the factor G, which callers hoist out of
// their inner loops:
//
//	Δa = m · d / (|d|² + eps2)^(3/2),  Δpot = m / (|d|² + eps2)^(1/2)
//
// The potential at the target is −G·pot. Δpot is the first product of Δa's
// factor, so it costs one add and leaves Δa bit for bit as it was. A zero
// offset with zero softening contributes nothing (the self-interaction
// convention, rather than producing NaN).
func Accumulate(dx, dy, dz, m, eps2 float64, ax, ay, az, pot *float64) {
	r2 := dx*dx + dy*dy + dz*dz + eps2
	if r2 == 0 {
		return
	}
	inv := 1 / math.Sqrt(r2)
	mi := m * inv
	f := mi * inv * inv
	*ax += f * dx
	*ay += f * dy
	*az += f * dz
	*pot += mi
}

// PairPotential returns the gravitational potential energy of two point
// masses, -G·m₁·m₂/√(r² + ε²), using the softened distance so that energy
// diagnostics are consistent with the softened force law.
func PairPotential(g, m1, m2, r2, eps2 float64) float64 {
	d := math.Sqrt(r2 + eps2)
	if d == 0 {
		return 0
	}
	return -g * m1 * m2 / d
}
