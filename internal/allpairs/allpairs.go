// Package allpairs implements the two O(N²) brute-force baselines the paper
// evaluates against its tree algorithms:
//
//   - AllPairs: the classical particle-particle method, a parallel loop over
//     bodies in which each iteration privately accumulates the force from
//     all other bodies. Iterations are fully independent (par_unseq).
//   - AllPairsCol: parallelizes over force *pairs*, computing each pairwise
//     interaction once and scattering ±F to both bodies with atomic
//     fetch_add accumulation. Half the arithmetic of AllPairs, but the
//     concurrent accumulation generates all-to-all coherency traffic —
//     the paper observes this makes it slower on CPUs (Figures 5-7).
//     Atomics require the par policy.
//
// Both write accelerations (G-scaled) into the system's Acc arrays.
package allpairs

import (
	"math"

	"nbody/internal/atomicx"
	"nbody/internal/body"
	"nbody/internal/grav"
	"nbody/internal/par"
	"nbody/internal/soa"
)

// DirectMaxN is the largest system the tree solvers' list kernels sum
// pairwise instead of walking a tree; the potentials that pass writes, and
// so the engine's energy sample, are pairwise too. Up to here the pairwise
// sum costs no more than a tree step (one worker, whole step: 130 µs
// against 174 µs octree and 229 µs BVH at N = 256; 2.0 ms against 2.4 and
// 2.5 ms at N = 1 024), and it carries no θ error, so a small system's
// accuracy does not depend on how its bodies happen to cluster.
const DirectMaxN = 1024

// tile is the block edge of AllPairsCol's pair supertiles: 64 bodies × 3
// coordinate arrays × 8 bytes = 1.5 KiB per tile, comfortably L1-resident.
const tile = 64

// AllPairs computes accelerations with the classical all-pairs algorithm
// under the given policy (the paper runs it with par_unseq).
func AllPairs(r *par.Runtime, pol par.Policy, s *body.System, p grav.Params) {
	AllPairsPhi(r, pol, s, p, nil)
}

// AllPairsPhi is AllPairs that also writes each body's potential φᵢ (per
// unit mass, G-scaled) into phi unless phi is nil; ½·Σ mᵢφᵢ is then the
// system's potential energy. The kernel returns the potential beside the
// acceleration, so φ costs one add per pair.
func AllPairsPhi(r *par.Runtime, pol par.Policy, s *body.System, p grav.Params, phi []float64) {
	n := s.N()
	eps2 := p.Eps2()
	self := soa.SelfInv(eps2)
	posX, posY, posZ, mass := s.PosX, s.PosY, s.PosZ, s.Mass

	r.ForGrain(pol, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xi, yi, zi := posX[i], posY[i], posZ[i]
			// The shared soa kernel hoists the eps2 branch out of the
			// inner loop; the self term j == i contributes zero
			// acceleration either way, so no index test is needed, and
			// its potential term is taken back out below.
			ax, ay, az, pot := soa.AccelPot(posX, posY, posZ, mass, 0, n, xi, yi, zi, eps2)
			s.AccX[i] = p.G * ax
			s.AccY[i] = p.G * ay
			s.AccZ[i] = p.G * az
			if phi != nil {
				phi[i] = p.G * (mass[i]*self - pot)
			}
		}
	})
}

// AllPairsCol computes accelerations by parallelizing over the N(N-1)/2
// unordered force pairs, with atomic accumulation into the shared Acc
// arrays. Following the paper it exploits Newton's third law: every pair is
// evaluated once and scattered to both bodies.
//
// The pair space is blocked into tile×tile supertiles so that each parallel
// task touches a bounded working set; atomics are still required because
// distinct tasks scatter to overlapping rows and columns.
func AllPairsCol(r *par.Runtime, pol par.Policy, s *body.System, p grav.Params) {
	n := s.N()
	eps2 := p.Eps2()
	posX, posY, posZ, mass := s.PosX, s.PosY, s.PosZ, s.Mass

	// Zero the accumulators first; they are written with atomic adds.
	r.ForGrain(par.ParUnseq, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s.AccX[i], s.AccY[i], s.AccZ[i] = 0, 0, 0
		}
	})

	// Enumerate supertiles of the upper-triangular pair matrix.
	nt := (n + tile - 1) / tile
	numTiles := nt * (nt + 1) / 2

	r.For(pol, numTiles, func(t int) {
		// Unrank t into tile coordinates (bi <= bj) of the upper
		// triangle, row by row: row bi holds (nt - bi) tiles.
		bi, rem := 0, t
		for rem >= nt-bi {
			rem -= nt - bi
			bi++
		}
		bj := bi + rem

		i0, i1 := bi*tile, min((bi+1)*tile, n)
		j0, j1 := bj*tile, min((bj+1)*tile, n)

		for i := i0; i < i1; i++ {
			xi, yi, zi, mi := posX[i], posY[i], posZ[i], mass[i]
			var ax, ay, az float64 // private row accumulator
			jStart := j0
			if bi == bj {
				jStart = i + 1 // strict upper triangle inside diagonal tiles
			}
			for j := jStart; j < j1; j++ {
				dx, dy, dz := posX[j]-xi, posY[j]-yi, posZ[j]-zi
				r2 := dx*dx + dy*dy + dz*dz + eps2
				if r2 == 0 {
					continue
				}
				inv := 1 / math.Sqrt(r2)
				f := inv * inv * inv
				// +m_j·f·d on body i (privately), -m_i·f·d on body j
				// (atomically: other tasks share column j).
				ax += mass[j] * f * dx
				ay += mass[j] * f * dy
				az += mass[j] * f * dz
				atomicx.AddFloat64(&s.AccX[j], -mi*f*dx)
				atomicx.AddFloat64(&s.AccY[j], -mi*f*dy)
				atomicx.AddFloat64(&s.AccZ[j], -mi*f*dz)
			}
			atomicx.AddFloat64(&s.AccX[i], ax)
			atomicx.AddFloat64(&s.AccY[i], ay)
			atomicx.AddFloat64(&s.AccZ[i], az)
		}
	})

	// Apply G in a final independent pass.
	if p.G != 1 {
		r.ForGrain(par.ParUnseq, n, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				s.AccX[i] *= p.G
				s.AccY[i] *= p.G
				s.AccZ[i] *= p.G
			}
		})
	}
}

// PotentialEnergy returns the exact total gravitational potential energy
// Σ_{i<j} -G·mᵢ·mⱼ/√(rᵢⱼ² + ε²), computed with a parallel reduction over
// rows of the pair matrix. O(N²): the independent oracle of diagnostics and
// tests, and the potential of AllPairsCol, whose scatter writes no φ.
//
// Each worker's rows are summed with Neumaier's compensation, so the result
// does not depend, beyond the last few bits, on the order of the bodies or
// the number of workers: a plain running sum over the ~N²/2 pairs of a
// chunk is off by up to ~N²·2⁻⁵³ relative, which on clustered input is
// more than the 1e-12 the energy tests hold the trees to.
func PotentialEnergy(r *par.Runtime, pol par.Policy, s *body.System, p grav.Params) float64 {
	n := s.N()
	eps2 := p.Eps2()
	posX, posY, posZ, mass := s.PosX, s.PosY, s.PosZ, s.Mass
	return par.ReduceRanges(r, pol, n, 0,
		func(a, b float64) float64 { return a + b },
		func(acc float64, lo, hi int) float64 {
			var c float64 // the low-order bits acc has lost
			for i := lo; i < hi; i++ {
				xi, yi, zi, mi := posX[i], posY[i], posZ[i], mass[i]
				for j := i + 1; j < n; j++ {
					dx, dy, dz := posX[j]-xi, posY[j]-yi, posZ[j]-zi
					u := grav.PairPotential(p.G, mi, mass[j], dx*dx+dy*dy+dz*dz, eps2)
					sum := acc + u
					if math.Abs(acc) >= math.Abs(u) {
						c += (acc - sum) + u
					} else {
						c += (u - sum) + acc
					}
					acc = sum
				}
			}
			return acc + c
		})
}
