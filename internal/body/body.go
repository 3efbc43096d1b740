// Package body holds the particle state of an N-body system in structure-of-
// arrays (SoA) layout: one contiguous float64 slice per component. SoA is
// what the paper's implementations use — it keeps the parallel loops of
// every phase streaming over dense arrays, and it lets the Hilbert sort be
// applied as a permutation of a handful of slices.
package body

import (
	"fmt"
	"math"

	"nbody/internal/par"
	"nbody/internal/vec"
)

// System is the mutable particle state of a simulation: masses, positions,
// velocities and the most recently computed accelerations of N bodies.
type System struct {
	Mass []float64
	PosX []float64
	PosY []float64
	PosZ []float64
	VelX []float64
	VelY []float64
	VelZ []float64
	AccX []float64
	AccY []float64
	AccZ []float64
	// ID tracks body identity through reorderings: ID[i] is the original
	// index of the body now in slot i. The Hilbert sort permutes body
	// order every rebuild, so cross-algorithm comparisons (e.g. the
	// paper's L2 validation) must match bodies by ID.
	ID []int32

	scratch   []float64 // permutation buffer, lazily allocated
	scratchID []int32
}

// NewSystem returns a zeroed system of n bodies.
func NewSystem(n int) *System {
	if n < 0 {
		panic("body: negative system size")
	}
	s := &System{
		Mass: make([]float64, n),
		PosX: make([]float64, n), PosY: make([]float64, n), PosZ: make([]float64, n),
		VelX: make([]float64, n), VelY: make([]float64, n), VelZ: make([]float64, n),
		AccX: make([]float64, n), AccY: make([]float64, n), AccZ: make([]float64, n),
		ID: make([]int32, n),
	}
	for i := range s.ID {
		s.ID[i] = int32(i)
	}
	return s
}

// N returns the number of bodies.
func (s *System) N() int { return len(s.Mass) }

// Pos returns body i's position as a vector.
func (s *System) Pos(i int) vec.V3 { return vec.V3{X: s.PosX[i], Y: s.PosY[i], Z: s.PosZ[i]} }

// Vel returns body i's velocity as a vector.
func (s *System) Vel(i int) vec.V3 { return vec.V3{X: s.VelX[i], Y: s.VelY[i], Z: s.VelZ[i]} }

// Acc returns body i's acceleration as a vector.
func (s *System) Acc(i int) vec.V3 { return vec.V3{X: s.AccX[i], Y: s.AccY[i], Z: s.AccZ[i]} }

// SetPos sets body i's position.
func (s *System) SetPos(i int, p vec.V3) { s.PosX[i], s.PosY[i], s.PosZ[i] = p.X, p.Y, p.Z }

// SetVel sets body i's velocity.
func (s *System) SetVel(i int, v vec.V3) { s.VelX[i], s.VelY[i], s.VelZ[i] = v.X, v.Y, v.Z }

// SetAcc sets body i's acceleration.
func (s *System) SetAcc(i int, a vec.V3) { s.AccX[i], s.AccY[i], s.AccZ[i] = a.X, a.Y, a.Z }

// Set initializes body i in one call.
func (s *System) Set(i int, mass float64, pos, vel vec.V3) {
	s.Mass[i] = mass
	s.SetPos(i, pos)
	s.SetVel(i, vel)
}

// Clone returns a deep copy of the system.
func (s *System) Clone() *System {
	c := NewSystem(s.N())
	copy(c.Mass, s.Mass)
	copy(c.PosX, s.PosX)
	copy(c.PosY, s.PosY)
	copy(c.PosZ, s.PosZ)
	copy(c.VelX, s.VelX)
	copy(c.VelY, s.VelY)
	copy(c.VelZ, s.VelZ)
	copy(c.AccX, s.AccX)
	copy(c.AccY, s.AccY)
	copy(c.AccZ, s.AccZ)
	copy(c.ID, s.ID)
	return c
}

// CopyFrom overwrites this system's state with src's. Both systems must
// have the same size; scratch buffers are not shared. This is the publish
// half of the double-buffering used by pipelined stepping: the engine
// copies the live arrays into a committed snapshot at each step boundary
// so concurrent readers never observe a torn mid-step state.
func (s *System) CopyFrom(src *System) {
	if s.N() != src.N() {
		panic(fmt.Sprintf("body: CopyFrom size mismatch: %d != %d", s.N(), src.N()))
	}
	copy(s.Mass, src.Mass)
	copy(s.PosX, src.PosX)
	copy(s.PosY, src.PosY)
	copy(s.PosZ, src.PosZ)
	copy(s.VelX, src.VelX)
	copy(s.VelY, src.VelY)
	copy(s.VelZ, src.VelZ)
	copy(s.AccX, src.AccX)
	copy(s.AccY, src.AccY)
	copy(s.AccZ, src.AccZ)
	copy(s.ID, src.ID)
}

// TotalMass returns the sum of all body masses.
func (s *System) TotalMass() float64 {
	var m float64
	for _, v := range s.Mass {
		m += v
	}
	return m
}

// Validate checks that the system is simulable: every component finite and
// every mass non-negative. It returns a descriptive error identifying the
// first offending body.
func (s *System) Validate() error {
	for i := 0; i < s.N(); i++ {
		if m := s.Mass[i]; math.IsNaN(m) || math.IsInf(m, 0) || m < 0 {
			return fmt.Errorf("body %d: invalid mass %v", i, m)
		}
		if !s.Pos(i).IsFinite() {
			return fmt.Errorf("body %d: non-finite position %v", i, s.Pos(i))
		}
		if !s.Vel(i).IsFinite() {
			return fmt.Errorf("body %d: non-finite velocity %v", i, s.Vel(i))
		}
	}
	return nil
}

// Particle is the array-of-structures (AoS) view of one body, the shape
// snapshots and API clients naturally speak. The hot path never touches
// it — solvers stream the flat slices — but conversion at the boundaries
// is cheap (one gather/scatter pass), and reference implementations (e.g.
// the golden-accuracy tests) use it to stay structurally independent of
// the SoA kernels they validate.
type Particle struct {
	Mass     float64
	Pos, Vel vec.V3
	Acc      vec.V3
	// ID is the body's original index (System.ID), the key cross-layout
	// comparisons match by, since tree solvers permute body order.
	ID int32
}

// Particles converts the system to AoS form (a fresh slice; the system is
// not retained).
func (s *System) Particles() []Particle {
	ps := make([]Particle, s.N())
	for i := range ps {
		ps[i] = Particle{
			Mass: s.Mass[i],
			Pos:  s.Pos(i),
			Vel:  s.Vel(i),
			Acc:  s.Acc(i),
			ID:   s.ID[i],
		}
	}
	return ps
}

// Permute reorders the bodies so that new body i is old body perm[i].
// perm must be a permutation of [0, N); the reorder is applied to every
// per-body array in parallel gather passes, each cut into a few chunks per
// worker (par.StreamGrain). This is how the HILBERTSORT step is
// materialized for toolchains without views::zip (the paper's
// AdaptiveCpp/Clang fallback, and ours).
func (s *System) Permute(r *par.Runtime, p par.Policy, perm []int32) {
	n := s.N()
	if len(perm) != n {
		panic(fmt.Sprintf("body: permutation length %d for %d bodies", len(perm), n))
	}
	if s.scratch == nil {
		s.scratch = make([]float64, n)
	}
	grain := r.StreamGrain(n)
	for _, arr := range []*[]float64{
		&s.Mass,
		&s.PosX, &s.PosY, &s.PosZ,
		&s.VelX, &s.VelY, &s.VelZ,
		&s.AccX, &s.AccY, &s.AccZ,
	} {
		src := *arr
		dst := s.scratch
		r.ForGrain(p, n, grain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				dst[i] = src[perm[i]]
			}
		})
		*arr, s.scratch = dst, src
	}

	if s.scratchID == nil {
		s.scratchID = make([]int32, n)
	}
	srcID, dstID := s.ID, s.scratchID
	r.ForGrain(p, n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dstID[i] = srcID[perm[i]]
		}
	})
	s.ID, s.scratchID = dstID, srcID
}

// Momentum returns the total linear momentum Σ mᵢvᵢ.
func (s *System) Momentum() vec.V3 {
	var px, py, pz float64
	for i := 0; i < s.N(); i++ {
		px += s.Mass[i] * s.VelX[i]
		py += s.Mass[i] * s.VelY[i]
		pz += s.Mass[i] * s.VelZ[i]
	}
	return vec.V3{X: px, Y: py, Z: pz}
}

// CenterOfMass returns Σ mᵢxᵢ / Σ mᵢ. It returns the origin for a massless
// system.
func (s *System) CenterOfMass() vec.V3 {
	var m, cx, cy, cz float64
	for i := 0; i < s.N(); i++ {
		m += s.Mass[i]
		cx += s.Mass[i] * s.PosX[i]
		cy += s.Mass[i] * s.PosY[i]
		cz += s.Mass[i] * s.PosZ[i]
	}
	if m == 0 {
		return vec.Zero
	}
	return vec.V3{X: cx / m, Y: cy / m, Z: cz / m}
}

// KineticEnergy returns Σ ½ mᵢ|vᵢ|².
func (s *System) KineticEnergy() float64 {
	var e float64
	for i := 0; i < s.N(); i++ {
		v2 := s.VelX[i]*s.VelX[i] + s.VelY[i]*s.VelY[i] + s.VelZ[i]*s.VelZ[i]
		e += 0.5 * s.Mass[i] * v2
	}
	return e
}
