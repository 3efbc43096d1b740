// Package integrator implements the Störmer-Verlet time integration the
// paper uses (its reference [12]) in the kick-drift-kick (velocity Verlet /
// leapfrog) form. Verlet is symplectic and keeps the energy error bounded.
//
// The integration is split into half-kicks and a drift so that the force
// solver can be invoked between them, matching the five-step loop of
// Algorithm 2: per timestep the simulation performs
//
//	KickHalf(dt)     // v += a·dt/2      (uses last step's accelerations)
//	Drift(dt)        // x += v·dt
//	<rebuild tree, CALCULATEFORCE>       // refresh a at the new positions
//	KickHalf(dt)     // v += a·dt/2
//
// which is algebraically the classic Störmer-Verlet update.
package integrator

import (
	"nbody/internal/body"
	"nbody/internal/par"
)

// KickHalf advances velocities by half a timestep with the current
// accelerations: v ← v + a·dt/2. Iterations are independent (par_unseq).
func KickHalf(r *par.Runtime, pol par.Policy, s *body.System, dt float64) {
	h := dt / 2
	velX, velY, velZ := s.VelX, s.VelY, s.VelZ
	accX, accY, accZ := s.AccX, s.AccY, s.AccZ
	r.ForGrain(pol, s.N(), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			velX[i] += h * accX[i]
			velY[i] += h * accY[i]
			velZ[i] += h * accZ[i]
		}
	})
}

// Drift advances positions by a full timestep with the current velocities:
// x ← x + v·dt.
func Drift(r *par.Runtime, pol par.Policy, s *body.System, dt float64) {
	posX, posY, posZ := s.PosX, s.PosY, s.PosZ
	velX, velY, velZ := s.VelX, s.VelY, s.VelZ
	r.ForGrain(pol, s.N(), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			posX[i] += dt * velX[i]
			posY[i] += dt * velY[i]
			posZ[i] += dt * velZ[i]
		}
	})
}

// ReverseVelocities negates every velocity. Verlet integration is
// time-reversible: integrating n steps, reversing, and integrating n more
// steps returns (up to floating-point rounding) to the initial state — a
// property the tests exploit.
func ReverseVelocities(r *par.Runtime, pol par.Policy, s *body.System) {
	velX, velY, velZ := s.VelX, s.VelY, s.VelZ
	r.ForGrain(pol, s.N(), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			velX[i] = -velX[i]
			velY[i] = -velY[i]
			velZ[i] = -velZ[i]
		}
	})
}
