package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"nbody/internal/body"
	"nbody/internal/bounds"
	"nbody/internal/bvh"
	"nbody/internal/core"
	"nbody/internal/integrator"
	"nbody/internal/octree"
	"nbody/internal/par"
)

// harness steps a body system by calling the engine's public functions in
// the order core.Sim calls them — half-kick, drift, bounding box,
// sort/build/moments or refit, force, half-kick — with one span around each
// call. It exists so the traced pass can time every layer from outside;
// engineLadder asserts that it lands where Sim.Step lands.
type harness struct {
	cfg core.Config // as core.New resolves it
	sys *body.System
	rt  *par.Runtime
	oct *octree.Tree
	bvh *bvh.Tree
	tr  *tracer

	// Adaptive tree reuse, as core tracks it (RebuildEvery is 1 in every
	// workload, so core's cadence cap never applies).
	driftAcc   float64
	rootExtent float64

	traces    []int // trace IDs of the measured steps
	stepSpans []int // their "core.step" span IDs
}

// structureMode picks what a step does to the tree.
type structureMode int

const (
	auto    structureMode = iota // decide as core does
	rebuild                      // bounding box, sort/build, moments
	refit                        // refresh boxes and moments in place
)

// newHarness resolves the workload's configuration for algo exactly as
// core.New does (e.g. PresortMorton forced on for the flat octree) and
// computes the accelerations at t₀ the first half-kick needs.
func newHarness(w spec, algo core.Algorithm, refitThreshold float64, sys *body.System, rt *par.Runtime, tr *tracer) (*harness, error) {
	cfg, err := w.cfg.CoreConfig()
	if err != nil {
		return nil, err
	}
	cfg.Algorithm, cfg.RefitThreshold, cfg.Runtime = algo, refitThreshold, rt
	sim, err := core.New(cfg, sys)
	if err != nil {
		return nil, err
	}
	h := &harness{cfg: sim.Config(), sys: sys, rt: rt, tr: tr}
	switch algo {
	case core.Octree:
		h.oct = octree.New(h.cfg.Octree)
	case core.BVH:
		h.bvh = bvh.New(h.cfg.BVH)
	default:
		return nil, fmt.Errorf("harness: no layer breakdown for %v", algo)
	}
	if err := h.structure(rebuild, 0, 0); err != nil {
		return nil, err
	}
	h.force(0, 0)
	return h, nil
}

func (h *harness) layer() string {
	if h.oct != nil {
		return "octree."
	}
	return "bvh."
}

// step advances one timestep under a "core.step" span of trace id and
// returns that span's ID.
func (h *harness) step(mode structureMode, trace int) (parent int, err error) {
	dt := h.cfg.DT
	parent = h.tr.start("core.step", 0, trace)
	defer h.tr.end(parent)

	h.tr.call("integrator.update", parent, trace, func() {
		integrator.KickHalf(h.rt, par.ParUnseq, h.sys, dt)
		integrator.Drift(h.rt, par.ParUnseq, h.sys, dt)
	})
	if mode == auto {
		mode = rebuild
		if h.cfg.RefitThreshold > 0 {
			h.driftAcc += dt * h.maxSpeed()
			if h.rootExtent > 0 && h.driftAcc <= h.cfg.RefitThreshold*h.rootExtent {
				mode = refit
			}
		}
	}
	if err := h.structure(mode, parent, trace); err != nil {
		return parent, err
	}
	h.force(parent, trace)
	h.tr.call("integrator.update", parent, trace, func() {
		integrator.KickHalf(h.rt, par.ParUnseq, h.sys, dt)
	})
	return parent, nil
}

// maxSpeed is max |v|, the per-step displacement bound of adaptive reuse.
func (h *harness) maxSpeed() float64 {
	vx, vy, vz := h.sys.VelX, h.sys.VelY, h.sys.VelZ
	m := 0.0
	for i := range vx {
		m = math.Max(m, vx[i]*vx[i]+vy[i]*vy[i]+vz[i]*vz[i])
	}
	return math.Sqrt(m)
}

func (h *harness) structure(mode structureMode, parent, trace int) error {
	s, pre := h.sys, h.layer()
	if mode == refit {
		if h.oct != nil {
			h.tr.call(pre+"moments", parent, trace, func() { h.oct.ComputeMoments(h.rt, s) })
		} else {
			h.tr.call(pre+"refit", parent, trace, func() { h.bvh.BuildNoSort(h.rt, par.Par, s) })
		}
		return nil
	}
	var box bounds.AABB
	h.tr.call("bounds.bbox", parent, trace, func() {
		box = bounds.OfPositions(h.rt, par.ParUnseq, s.PosX, s.PosY, s.PosZ)
	})
	if h.oct != nil {
		var err error
		h.tr.call(pre+"build", parent, trace, func() { err = h.oct.Build(h.rt, s, box) })
		if err != nil {
			return err
		}
		h.tr.call(pre+"moments", parent, trace, func() { h.oct.ComputeMoments(h.rt, s) })
	} else {
		h.tr.call(pre+"sort", parent, trace, func() { h.bvh.Sort(h.rt, par.Par, s, box) })
		h.tr.call(pre+"build", parent, trace, func() { h.bvh.BuildNoSort(h.rt, par.Par, s) })
	}
	h.driftAcc, h.rootExtent = 0, box.MaxExtent()
	return nil
}

// force runs the flat interaction-list force pass under span <layer>force.
func (h *harness) force(parent, trace int) {
	h.tr.call(h.layer()+"force", parent, trace, func() {
		if h.oct != nil {
			h.oct.AccelerationsList(h.rt, par.ParUnseq, h.sys, h.cfg.Params, h.cfg.Octree.GroupSize)
		} else {
			h.bvh.AccelerationsList(h.rt, par.ParUnseq, h.sys, h.cfg.Params, h.cfg.BVH.GroupBodies)
		}
	})
}

// run makes one warm-up step (under trace 0, which is never read) and then
// the measured steps, each under a fresh trace ID.
func (h *harness) run(steps int) error {
	if _, err := h.step(auto, 0); err != nil {
		return err
	}
	for k := 0; k < steps; k++ {
		id := h.tr.newTrace()
		span, err := h.step(auto, id)
		if err != nil {
			return err
		}
		h.traces = append(h.traces, id)
		h.stepSpans = append(h.stepSpans, span)
	}
	return nil
}

// medianMS is the median, over those of the harness's measured steps that
// made the call at all, of the time spent in spans called name (summed
// within a step): on a refit workload the sort is timed on the rebuild
// steps only. It is 0 when no measured step made the call.
func (h *harness) medianMS(name string) float64 {
	ms := h.tr.sums(name, h.traces)
	if len(ms) == 0 {
		return 0
	}
	return median(ms)
}

// sums adds up, per trace ID, the durations of the spans called name,
// leaving out the traces that have none.
func (t *tracer) sums(name string, traces []int) []float64 {
	byTrace := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			byTrace[s.Trace] += s.ms()
		}
	}
	var out []float64
	for _, id := range traces {
		if ms, ok := byTrace[id]; ok {
			out = append(out, ms)
		}
	}
	return out
}

// runtimeFor is the parallel runtime the workload's simulations step on:
// the whole machine for an engine workload, one slot's share for a served
// session.
func (w spec) runtimeFor() *par.Runtime {
	if w.serve() {
		return sessionRuntime()
	}
	return par.Default()
}

// engineLadder is the traced pass over the engine layers, on simulation 0
// of the workload: the program's own Sim.Step untraced (the reference and
// the allocation figures), the harness with the workload's solver, the
// harness with the other tree solver so every layer has a number on every
// input, a forced rebuild-then-three-refits sequence on the BVH, and a
// sequential run for par.speedup.
func engineLadder(w spec, o options, rep *report, tr *tracer) error {
	steps, otherSteps, seqSteps := 10, 5, 5
	if w.serve() {
		steps, otherSteps = 100, 50 // sub-millisecond steps need more samples
	}
	if o.smoke {
		steps, otherSteps, seqSteps = 3, 2, 2
	}
	input, err := w.bodies(o.seed, 0)
	if err != nil {
		return err
	}
	rt := w.runtimeFor()
	cfg, err := w.cfg.CoreConfig()
	if err != nil {
		return err
	}
	cfg.Runtime = rt

	// The program's own step, with no benchmark code between the phases.
	ref, err := core.New(cfg, input.Clone())
	if err != nil {
		return err
	}
	if err := ref.Step(); err != nil { // warm-up; also pays the initial force pass
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	refLog := timeOps(limit{ops: steps}, func(int) error { return ref.Step() })
	runtime.ReadMemStats(&after)
	rep.ops(refLog)
	untraced := median(refLog.lat)

	own := cfg.Algorithm
	h, err := newHarness(w, own, cfg.RefitThreshold, input.Clone(), rt, tr)
	if err != nil {
		return err
	}
	if err := h.run(steps); err != nil {
		return err
	}

	// The harness must be the program's step, not a look-alike.
	dist := positionDistance(ref.System(), h.sys)
	tol := 1e-12 // the CAS octree sums moments in schedule order
	if own == core.BVH {
		tol = 0
	}
	rep.check(dist <= tol, "harness-driven %v steps end %.3g (relative position L2) from Sim.Step, want ≤ %g", own, dist, tol)

	otherAlgo := core.BVH
	if own == core.BVH {
		otherAlgo = core.Octree
	}
	other, err := newHarness(w, otherAlgo, 0, input.Clone(), rt, tr)
	if err != nil {
		return err
	}
	if err := other.run(otherSteps); err != nil {
		return err
	}
	oct, bv := h, other
	if own == core.BVH {
		oct, bv = other, h
	}

	// Refit beside rebuild: a fresh sort, then three refits; the force pass
	// after the third walks a Hilbert order three steps stale.
	if _, err := bv.step(rebuild, 0); err != nil {
		return err
	}
	var refits []int
	for i := 0; i < 3; i++ {
		refits = append(refits, tr.newTrace())
		if _, err := bv.step(refit, refits[i]); err != nil {
			return err
		}
	}

	stepMS := h.medianMS("core.step")
	selfs := make([]float64, 0, steps)
	for _, id := range h.stepSpans {
		selfs = append(selfs, selfMS(tr.spans, id))
	}
	selfMed := median(selfs)

	rep.add("bounds.bbox_ms", h.medianMS("bounds.bbox"), "ms", "")
	rep.add("octree.build_ms", oct.medianMS("octree.build"), "ms", "")
	rep.add("octree.moments_ms", oct.medianMS("octree.moments"), "ms", "")
	rep.add("octree.force_ms", oct.medianMS("octree.force"), "ms", "")
	st := oct.oct.Stats()
	rep.add("octree.nodes", float64(st.Nodes), "count", "")
	rep.add("octree.max_depth", float64(st.MaxDepth), "count", "")
	rep.add("bvh.sort_ms", bv.medianMS("bvh.sort"), "ms", "")
	rep.add("bvh.build_ms", bv.medianMS("bvh.build"), "ms", "")
	rep.add("bvh.force_ms", bv.medianMS("bvh.force"), "ms", "")
	rep.add("bvh.refit_ms", median(tr.sums("bvh.refit", refits)), "ms", "forced refits")
	rep.add("bvh.force_stale_ms", tr.sums("bvh.force", refits[2:])[0], "ms", "after 3 refits")
	rep.add("bvh.levels", float64(bv.bvh.Levels()), "count", "")
	rep.add("integrator.update_ms", h.medianMS("integrator.update"), "ms", "")
	rep.add("core.step_ms", stepMS, "ms", fmt.Sprintf("%v, %d harness steps", own, steps))
	rep.add("core.self_ms", selfMed, "ms", fmt.Sprintf("children cover %.1f%%", 100*(1-selfMed/stepMS)))
	if !w.serve() && !o.smoke {
		rep.check(selfMed <= 0.05*stepMS, "child spans cover only %.1f%% of core.step", 100*(1-selfMed/stepMS))
	}
	rep.add("core.rebuild_share", float64(ref.Rebuilds())/float64(ref.Rebuilds()+ref.Refits()), "share",
		fmt.Sprintf("%d rebuilds, %d refits", ref.Rebuilds(), ref.Refits()))
	k := float64(steps)
	rep.add("core.allocs_per_step", float64(after.Mallocs-before.Mallocs)/k, "count", "Sim.Step")
	rep.add("core.alloc_kb_per_step", float64(after.TotalAlloc-before.TotalAlloc)/k/1024, "kB", "")
	rep.add("core.gc_pause_ms_per_step", float64(after.PauseTotalNs-before.PauseTotalNs)/k/1e6, "ms", "")
	overhead := (stepMS - untraced) / untraced
	rep.add("trace.overhead_share", overhead, "share", fmt.Sprintf("untraced Sim.Step p50 %.4g ms", untraced))
	if overhead > 0.05 && !w.serve() && !o.smoke {
		fmt.Fprintf(rep.out, "# WARNING: tracing overhead %.1f%% exceeds 5%%\n", 100*overhead)
	}

	// Sequential baseline of the same problem.
	seq, err := newSim(w, o.seed, true)
	if err != nil {
		return err
	}
	t := time.Now()
	seqLog := timeOps(limit{ops: seqSteps}, func(int) error { return seq.Step() })
	rep.ops(seqLog)
	note := fmt.Sprintf("%d seq steps in %.2fs; %d workers", seqSteps, time.Since(t).Seconds(), rt.Workers())
	if runtime.GOMAXPROCS(0) < 4 {
		note += "; reported, not gated, below 4 cores"
	}
	rep.add("par.speedup", median(seqLog.lat)/untraced, "x", note)
	return nil
}
