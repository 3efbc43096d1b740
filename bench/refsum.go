package main

import (
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"

	"nbody/internal/body"
)

// l2Samples is how many bodies of a large final state are checked against the
// direct sum.
const l2Samples = 1024

// sampleBodies picks up to k distinct body slots of an n-body system,
// deterministically from seed.
func sampleBodies(n, k int, seed uint64) []int {
	if k >= n {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	r := rand.New(rand.NewPCG(seed, 0x6e626f6479))
	return r.Perm(n)[:k]
}

// directAccel is the benchmark's own reference: the exact softened
// all-pairs acceleration at each sampled body, summed in body order. It
// deliberately shares nothing with internal/allpairs or internal/soa, so a
// defect in the program's kernels cannot also hide in the reference.
func directAccel(sys *body.System, sample []int, g, eps float64) (ax, ay, az []float64) {
	ax = make([]float64, len(sample))
	ay = make([]float64, len(sample))
	az = make([]float64, len(sample))
	eps2 := eps * eps
	x, y, z, m := sys.PosX, sys.PosY, sys.PosZ, sys.Mass

	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(sample); k += workers {
				i := sample[k]
				xi, yi, zi := x[i], y[i], z[i]
				var sx, sy, sz float64
				for j := range m {
					dx, dy, dz := x[j]-xi, y[j]-yi, z[j]-zi
					r2 := dx*dx + dy*dy + dz*dz + eps2
					if r2 == 0 {
						continue
					}
					f := m[j] / (r2 * math.Sqrt(r2))
					sx += f * dx
					sy += f * dy
					sz += f * dz
				}
				ax[k], ay[k], az[k] = g*sx, g*sy, g*sz
			}
		}(w)
	}
	wg.Wait()
	return ax, ay, az
}

// l2Accum collects, per sampled body, the relative L2 error of the
// solver's acceleration vector, |a − a_ref| ÷ |a_ref|, over one or several
// systems (the sessions of a serve workload).
type l2Accum struct {
	rel []float64
}

// add compares the solver's accelerations held in sys against the direct
// sum at the sampled bodies.
func (a *l2Accum) add(sys *body.System, sample []int, g, eps float64) {
	rx, ry, rz := directAccel(sys, sample, g, eps)
	for k, i := range sample {
		dx, dy, dz := sys.AccX[i]-rx[k], sys.AccY[i]-ry[k], sys.AccZ[i]-rz[k]
		ref2 := rx[k]*rx[k] + ry[k]*ry[k] + rz[k]*rz[k]
		a.rel = append(a.rel, math.Sqrt((dx*dx+dy*dy+dz*dz)/ref2))
	}
}

// p90 is the error nine bodies in ten stay below. The mean square of the
// same errors is decided by the handful of bodies whose net force nearly
// cancels (|a_ref| → 0) and moves by a quarter from seed to seed on a
// clustered input; the 90th percentile moves by a few percent and still
// rises with any loss of accuracy that touches a tenth of the bodies.
func (a *l2Accum) p90() float64 {
	if len(a.rel) == 0 {
		return math.NaN()
	}
	return percentile(slices.Sorted(slices.Values(a.rel)), 90)
}
