// Package trace records time-series diagnostics and body snapshots of a
// simulation run and writes them as CSV for external analysis/plotting —
// the moral equivalent of the paper artifact's raw `out_$(hostname)` data
// files that its `ci/data.py` post-processes.
package trace

import (
	"fmt"
	"io"

	"nbody/internal/body"
	"nbody/internal/core"
)

// Sample is one diagnostics record at a simulation step.
type Sample struct {
	Step          int
	Time          float64 // Step · dt
	Mass          float64
	KineticEnergy float64
	Potential     float64
	TotalEnergy   float64
	MomentumNorm  float64
}

// Recorder accumulates samples from a simulation. A Recorder from
// NewRecorder grows without bound; long-running services should use
// NewRecorderLimit, which retains only the most recent samples.
type Recorder struct {
	dt      float64
	max     int // 0 = unbounded
	samples []Sample
	next    int  // write index once the ring has wrapped
	wrapped bool // samples has reached max and wrapped around
}

// NewRecorder returns a Recorder for a simulation with timestep dt.
func NewRecorder(dt float64) *Recorder { return &Recorder{dt: dt} }

// NewRecorderLimit returns a Recorder that retains at most max samples,
// discarding the oldest once full so memory stays bounded over an
// arbitrarily long run. max <= 0 means unbounded.
func NewRecorderLimit(dt float64, max int) *Recorder {
	if max < 0 {
		max = 0
	}
	return &Recorder{dt: dt, max: max}
}

// Record appends a sample taken from sim's current state. exact selects the
// O(N²) pairwise potential instead of the O(N) reduce of the potentials the
// last force pass wrote (see core.Sim.Diagnostics).
func (r *Recorder) Record(sim *core.Sim, exact bool) {
	d := sim.Diagnostics(exact)
	s := Sample{
		Step:          sim.StepCount(),
		Time:          float64(sim.StepCount()) * r.dt,
		Mass:          d.Mass,
		KineticEnergy: d.KineticEnergy,
		Potential:     d.Potential,
		TotalEnergy:   d.TotalEnergy,
		MomentumNorm:  d.Momentum.Norm(),
	}
	if r.max > 0 && len(r.samples) == r.max {
		r.samples[r.next] = s
		r.next = (r.next + 1) % r.max
		r.wrapped = true
		return
	}
	r.samples = append(r.samples, s)
}

// Samples returns the retained samples, oldest first. Until a limited
// recorder wraps, the returned slice is shared (do not modify); after
// wrapping it is a fresh ordered copy.
func (r *Recorder) Samples() []Sample {
	if !r.wrapped {
		return r.samples
	}
	out := make([]Sample, 0, len(r.samples))
	out = append(out, r.samples[r.next:]...)
	return append(out, r.samples[:r.next]...)
}

// Last returns the most recent sample; ok is false when none was recorded.
func (r *Recorder) Last() (s Sample, ok bool) {
	if len(r.samples) == 0 {
		return Sample{}, false
	}
	if r.wrapped {
		return r.samples[(r.next-1+r.max)%r.max], true
	}
	return r.samples[len(r.samples)-1], true
}

// Len returns the number of retained samples.
func (r *Recorder) Len() int { return len(r.samples) }

// EnergyDrift returns the maximum |E(t)−E(0)|/|E(0)| over the retained
// samples, or 0 with fewer than two samples.
func (r *Recorder) EnergyDrift() float64 {
	samples := r.Samples()
	if len(samples) < 2 {
		return 0
	}
	e0 := samples[0].TotalEnergy
	if e0 == 0 {
		return 0
	}
	worst := 0.0
	for _, s := range samples[1:] {
		d := abs(s.TotalEnergy-e0) / abs(e0)
		if d > worst {
			worst = d
		}
	}
	return worst
}

// WriteCSV writes the retained samples as CSV with a header row, oldest
// first.
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "step,time,mass,kinetic,potential,total_energy,momentum"); err != nil {
		return err
	}
	for _, s := range r.Samples() {
		if _, err := fmt.Fprintf(w, "%d,%g,%g,%g,%g,%g,%g\n",
			s.Step, s.Time, s.Mass, s.KineticEnergy, s.Potential, s.TotalEnergy, s.MomentumNorm); err != nil {
			return err
		}
	}
	return nil
}

// WriteSnapshotCSV writes one position/velocity snapshot of sys, keyed by
// body ID so rows are comparable across algorithms that permute body order.
func WriteSnapshotCSV(w io.Writer, step int, sys *body.System) error {
	if _, err := fmt.Fprintln(w, "step,id,mass,x,y,z,vx,vy,vz"); err != nil {
		return err
	}
	for i := 0; i < sys.N(); i++ {
		if _, err := fmt.Fprintf(w, "%d,%d,%g,%g,%g,%g,%g,%g,%g\n",
			step, sys.ID[i], sys.Mass[i],
			sys.PosX[i], sys.PosY[i], sys.PosZ[i],
			sys.VelX[i], sys.VelY[i], sys.VelZ[i]); err != nil {
			return err
		}
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
