package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"nbody/internal/core"
)

// options are the knobs of one single-workload run.
type options struct {
	seed   uint64
	lim    limit
	smoke  bool
	outDir string
}

// A run sets its workload up at least minSetups times, and keeps going —
// up to maxSetups — until the set-ups add up to a second; setup_s is their
// median. A 40 ms set-up timed three times is decided by one page-fault
// storm; timed twenty-five times it is not.
const (
	minSetups = 3
	maxSetups = 25
)

// newSim generates the workload's bodies and returns a warmed-up
// simulation: core.New plus one untimed step, which also pays the initial
// force pass.
func newSim(w spec, seed uint64, sequential bool) (*core.Sim, error) {
	sys, err := w.bodies(seed, 0)
	if err != nil {
		return nil, err
	}
	cfg, err := w.cfg.CoreConfig()
	if err != nil {
		return nil, err
	}
	cfg.Sequential = sequential
	sim, err := core.New(cfg, sys)
	if err != nil {
		return nil, err
	}
	return sim, sim.Step()
}

// reportSetup reports setup_s: the median of the first set-up's time and
// of its repeats, relative to the reference probe. again sets the workload
// up once more and returns its teardown, which is not timed. The repeats run
// after everything else, so the measured window and mem_peak_mb see one live
// workload in a fresh heap, as a real process would.
func reportSetup(rep *report, o options, first time.Duration, again func() (teardown func(), err error)) error {
	budget := 1.0 // seconds
	if o.smoke {
		budget = 0
	}
	secs, total := []float64{first.Seconds()}, first.Seconds()
	for len(secs) < minSetups || total < budget && len(secs) < maxSetups {
		runtime.GC()
		t := time.Now()
		teardown, err := again()
		if err != nil {
			return err
		}
		sec := time.Since(t).Seconds()
		secs, total = append(secs, sec), total+sec
		teardown()
		rep.ref.probe()
	}
	rep.addTime("setup_s", median(secs), "s", fmt.Sprintf("median of %d set-ups", len(secs)))
	return nil
}

// runEngine is the untraced run of an engine workload: one simulation
// stepped on the whole machine, one op per Sim.Step.
func runEngine(w spec, o options, rep *report) error {
	// Built before anything is timed: the probe is not part of set-up.
	ref, err := newReference(o.smoke)
	if err != nil {
		return err
	}
	defer ref.close()
	rep.ref = ref
	ref.probe()

	t := time.Now()
	sim, err := newSim(w, o.seed, false)
	if err != nil {
		return err
	}
	setup := time.Since(t)

	e0 := sim.Diagnostics(false).TotalEnergy
	log := rep.ref.window(o.lim, func(part limit) opLog {
		return timeOps(part, func(int) error { return sim.Step() })
	})
	e1 := sim.Diagnostics(false).TotalEnergy

	steps := len(log.lat) - log.failed
	rep.ops(log)
	rep.latencyMetrics(w, log, float64(w.n)*float64(steps))

	sys := sim.System()
	rep.check(sys.Validate() == nil, "final state invalid: %v", sys.Validate())
	rep.check(sim.StepCount() == 1+steps, "StepCount %d, want warm-up + %d timed", sim.StepCount(), steps)
	drift := math.Abs(e1-e0) / math.Abs(e0)
	rep.check(drift <= w.driftTol, "relative energy drift %.3g over the window exceeds %g", drift, w.driftTol)
	fmt.Fprintf(rep.out, "# energy drift %.3g, rebuilds %d, refits %d\n", drift, sim.Rebuilds(), sim.Refits())

	var l2 l2Accum
	l2.add(sys, sampleBodies(sys.N(), l2Samples, o.seed), w.cfg.G, w.cfg.Eps)
	rep.l2Metric(w, l2.p90())
	rep.add("mem_peak_mb", peakMemMB(rep.ref.residentMB()), "MB", "")

	sim = nil
	return reportSetup(rep, o, setup, func() (func(), error) {
		_, err := newSim(w, o.seed, false)
		return func() {}, err
	})
}

// l2Metric reports accel_l2_error and applies its hard gate: twice the
// value recorded when the benchmark was defined.
func (r *report) l2Metric(w spec, l2 float64) {
	gate := 2 * w.l2Ref
	r.add("accel_l2_error", l2, "rel", fmt.Sprintf("gate %.3g", gate))
	r.check(l2 <= gate, "accel_l2_error %.3g exceeds the gate %.3g", l2, gate)
}

// peakMemMB is the process's peak resident set (VmHWM) less probeMB, the
// reference probe's mapped array, which is resident from start to end. It
// falls back to the Go runtime's view of memory obtained from the OS, which
// never held that array.
func peakMemMB(probeMB float64) float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil && len(f) == 2 && f[1] == "kB" {
					return kb/1024 - probeMB
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
