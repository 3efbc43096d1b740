package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"time"

	"nbody/internal/body"
	"nbody/internal/bvh"
	"nbody/internal/core"
	"nbody/internal/grav"
	"nbody/internal/metrics"
	"nbody/internal/octree"
	"nbody/internal/par"
	"nbody/internal/plot"
	"nbody/internal/stream"
	"nbody/internal/workload"
)

// runTable1 reproduces the validation column of Table I: BabelStream
// bandwidths for the Go runtime on this host, sequential and parallel.
func runTable1(fs *flag.FlagSet, args []string) error {
	c := addCommon(fs, 0)
	n := fs.Int("n", stream.DefaultN, "array length in float64 elements")
	iters := fs.Int("iters", 15, "timed iterations per kernel")
	if err := fs.Parse(args); err != nil {
		return err
	}

	header("Table I analog — BabelStream kernels, %d elements/array (%.0f MiB)", *n, float64(*n)*8/(1<<20))
	tb := metrics.NewTable("policy", "kernel", "GB/s", "best", "verified")
	for _, mode := range []struct {
		name string
		pol  par.Policy
		rt   *par.Runtime
	}{
		{"seq", par.Seq, par.NewRuntime(1, par.Dynamic)},
		{"par_unseq", par.ParUnseq, c.runtime(par.Dynamic)},
	} {
		for _, res := range stream.Benchmark(mode.rt, mode.pol, *n, *iters) {
			tb.AddRow(mode.name, res.Kernel, res.GBps, res.Best.Round(time.Microsecond).String(), res.Checked)
		}
	}
	c.render(tb)
	return nil
}

// runFig5 reproduces Figure 5: single-core sequential vs parallel
// throughput for the tiny (10⁴) galaxy workload, all four algorithms.
func runFig5(fs *flag.FlagSet, args []string) error {
	c := addCommon(fs, 10)
	n := fs.Int("n", 10_000, "number of bodies")
	algsFlag := fs.String("algs", "", "comma-separated algorithms to run (default: the paper's four)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	lay, err := c.coreLayout()
	if err != nil {
		return err
	}
	algs, err := parseAlgs(*algsFlag, core.Algorithms())
	if err != nil {
		return err
	}

	header("Figure 5 — sequential vs parallel throughput, galaxy (n=%d, layout=%v)", *n, lay)
	base := galaxySystem(*n, *c.seed)
	tb := metrics.NewTable("algorithm", "mode", "bodies/s", "ms/step", "speedup")
	var groups []plot.BarGroup

	for _, alg := range algs {
		var seqTP float64
		group := plot.BarGroup{Label: alg.String()}
		for _, seq := range []bool{true, false} {
			cfg := core.Config{Algorithm: alg, DT: galaxyDT, Sequential: seq, Layout: lay, Runtime: c.runtime(par.Dynamic)}
			m, err := measure(cfg, base, *c.steps, *c.repeats)
			if err != nil {
				return err
			}
			mode := "par"
			speedup := m.throughput / seqTP
			if seq {
				mode, seqTP, speedup = "seq", m.throughput, 1
			}
			group.Values = append(group.Values, m.throughput)
			tb.AddRow(alg.String(), mode, m.throughput, float64(m.perStep.Microseconds())/1000, speedup)
		}
		groups = append(groups, group)
	}
	c.render(tb)
	return c.writeSVG(func(w io.Writer) error {
		return plot.GroupedBars(w, fmt.Sprintf("Figure 5 — seq vs parallel, n=%d galaxy", *n),
			"bodies·steps/s", []string{"seq", "par"}, groups)
	})
}

// runFig6 reproduces Figure 6: algorithm throughput for the small (10⁵)
// galaxy workload.
func runFig6(fs *flag.FlagSet, args []string) error {
	c := addCommon(fs, 5)
	n := fs.Int("n", 100_000, "number of bodies")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return throughputFigure(c, *n, core.Algorithms(), "Figure 6 — algorithm throughput, small galaxy (n=%d)")
}

// runFig7 reproduces Figure 7: algorithm throughput for the mid (10⁶)
// galaxy workload. The O(N²) baselines need ~10¹² pair evaluations per step
// at this size, so they are opt-in via -allpairs.
func runFig7(fs *flag.FlagSet, args []string) error {
	c := addCommon(fs, 3)
	n := fs.Int("n", 1_000_000, "number of bodies")
	withAllPairs := fs.Bool("allpairs", false, "include the O(N²) baselines (very slow at 10⁶)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	algs := []core.Algorithm{core.Octree, core.BVH}
	if *withAllPairs {
		algs = core.Algorithms()
	}
	return throughputFigure(c, *n, algs, "Figure 7 — algorithm throughput, mid galaxy (n=%d)")
}

func throughputFigure(c *common, n int, algs []core.Algorithm, banner string) error {
	lay, err := c.coreLayout()
	if err != nil {
		return err
	}
	header(banner, n)
	base := galaxySystem(n, *c.seed)
	tb := metrics.NewTable("algorithm", "bodies/s", "ms/step")
	var names []string
	group := plot.BarGroup{Label: fmt.Sprintf("n=%d", n)}
	for _, alg := range algs {
		cfg := core.Config{Algorithm: alg, DT: galaxyDT, Layout: lay, Runtime: c.runtime(par.Dynamic)}
		m, err := measure(cfg, base, *c.steps, *c.repeats)
		if err != nil {
			return err
		}
		names = append(names, alg.String())
		group.Values = append(group.Values, m.throughput)
		tb.AddRow(alg.String(), m.throughput, float64(m.perStep.Microseconds())/1000)
	}
	c.render(tb)
	return c.writeSVG(func(w io.Writer) error {
		return plot.GroupedBars(w, fmt.Sprintf(banner, n), "bodies·steps/s", names, []plot.BarGroup{group})
	})
}

// runFig8 reproduces Figure 8: the relative execution time of the non-force
// phases for octree and BVH, across the three schedulers (the reproduction's
// stand-in for the paper's three toolchains).
func runFig8(fs *flag.FlagSet, args []string) error {
	c := addCommon(fs, 5)
	n := fs.Int("n", 100_000, "number of bodies")
	if err := fs.Parse(args); err != nil {
		return err
	}

	header("Figure 8 — relative time of non-force phases, small galaxy (n=%d)\n(force phase excluded, as in the paper)", *n)
	base := galaxySystem(*n, *c.seed)
	tb := metrics.NewTable("algorithm", "scheduler", "bbox%", "sort%", "build%", "multipoles%", "update%", "force ms/step")
	segments := []metrics.Phase{metrics.PhaseBoundingBox, metrics.PhaseSort, metrics.PhaseBuild, metrics.PhaseMultipoles, metrics.PhaseUpdate}
	var groups []plot.BarGroup

	for _, alg := range []core.Algorithm{core.Octree, core.BVH} {
		for _, sched := range []par.Scheduler{par.Dynamic, par.Static, par.Guided} {
			cfg := core.Config{Algorithm: alg, DT: galaxyDT, Runtime: c.runtime(sched)}
			m, err := measure(cfg, base, *c.steps, *c.repeats)
			if err != nil {
				return err
			}
			bd := &m.breakdown
			pct := func(p metrics.Phase) float64 { return 100 * bd.FractionExcludingForce(p) }
			forceMS := float64(bd.Elapsed(metrics.PhaseForce).Microseconds()) / 1000 / float64(*c.steps)
			tb.AddRow(alg.String(), sched.String(),
				pct(metrics.PhaseBoundingBox), pct(metrics.PhaseSort), pct(metrics.PhaseBuild),
				pct(metrics.PhaseMultipoles), pct(metrics.PhaseUpdate), forceMS)

			group := plot.BarGroup{Label: fmt.Sprintf("%s/%s", alg, sched)}
			for _, p := range segments {
				group.Values = append(group.Values, bd.FractionExcludingForce(p))
			}
			groups = append(groups, group)
		}
	}
	c.render(tb)
	return c.writeSVG(func(w io.Writer) error {
		names := make([]string, len(segments))
		for i, p := range segments {
			names[i] = p.String()
		}
		return plot.StackedBars(w, fmt.Sprintf("Figure 8 — non-force phase shares, n=%d", *n), names, groups)
	})
}

// runFig9 reproduces Figure 9: throughput vs problem size for two runtime
// implementations (dynamic vs static scheduling as the two "toolchains").
func runFig9(fs *flag.FlagSet, args []string) error {
	c := addCommon(fs, 3)
	if err := fs.Parse(args); err != nil {
		return err
	}

	header("Figure 9 — throughput vs N, two schedulers (toolchain analog)")
	tb := metrics.NewTable("algorithm", "scheduler", "n", "bodies/s")
	series := map[string]*plot.Series{}
	var seriesOrder []string
	for _, n := range []int{10_000, 31_623, 100_000, 316_228, 1_000_000} {
		base := galaxySystem(n, *c.seed)
		for _, alg := range []core.Algorithm{core.Octree, core.BVH} {
			for _, sched := range []par.Scheduler{par.Dynamic, par.Static} {
				cfg := core.Config{Algorithm: alg, DT: galaxyDT, Runtime: c.runtime(sched)}
				m, err := measure(cfg, base, *c.steps, *c.repeats)
				if err != nil {
					return err
				}
				tb.AddRow(alg.String(), sched.String(), n, m.throughput)
				key := fmt.Sprintf("%s/%s", alg, sched)
				se, ok := series[key]
				if !ok {
					se = &plot.Series{Name: key}
					series[key] = se
					seriesOrder = append(seriesOrder, key)
				}
				se.X = append(se.X, float64(n))
				se.Y = append(se.Y, m.throughput)
			}
		}
	}
	c.render(tb)
	return c.writeSVG(func(w io.Writer) error {
		out := make([]plot.Series, 0, len(seriesOrder))
		for _, k := range seriesOrder {
			out = append(out, *series[k])
		}
		return plot.LogLogLines(w, "Figure 9 — throughput vs N", "bodies", "bodies·steps/s", out)
	})
}

// runValidate reproduces the Section V-A validation: simulate the synthetic
// solar-system catalogue for one day at a one-hour timestep with every
// implementation and report the pairwise L2 error of final positions plus
// the Octree:BVH performance ratio. The paper's full scale is
// -n 1039551 (with the exact all-pairs reference limited to smaller n).
func runValidate(fs *flag.FlagSet, args []string) error {
	c := addCommon(fs, 24)
	n := fs.Int("n", 20_000, "number of bodies (paper: 1039551)")
	exactMax := fs.Int("exact-max", 50_000, "largest n for which the O(N²) reference runs")
	if err := fs.Parse(args); err != nil {
		return err
	}

	const dt = 1.0 / 24 // one hour in days
	params := grav.Params{G: workload.GSolar, Eps: 0, Theta: 0.5}
	header("Validation (Section V-A) — %d solar-system bodies, %d steps of dt=1h", *n, *c.steps)

	type result struct {
		pos     [][3]float64
		elapsed time.Duration
	}
	runOne := func(alg core.Algorithm) (result, error) {
		sys := workload.SolarSystemBelt(*n, *c.seed)
		sim, err := core.New(core.Config{Algorithm: alg, DT: dt, Params: params, Runtime: c.runtime(par.Dynamic)}, sys)
		if err != nil {
			return result{}, err
		}
		start := time.Now()
		if err := sim.Run(*c.steps); err != nil {
			return result{}, err
		}
		elapsed := time.Since(start)
		pos := make([][3]float64, *n)
		for i := 0; i < *n; i++ {
			pos[sys.ID[i]] = [3]float64{sys.PosX[i], sys.PosY[i], sys.PosZ[i]}
		}
		return result{pos, elapsed}, nil
	}

	algs := []core.Algorithm{core.Octree, core.BVH}
	if *n <= *exactMax {
		algs = append(algs, core.AllPairs)
	} else {
		fmt.Printf("(n > %d: skipping the O(N²) reference; comparing octree vs bvh)\n\n", *exactMax)
	}

	results := map[core.Algorithm]result{}
	for _, alg := range algs {
		r, err := runOne(alg)
		if err != nil {
			return err
		}
		results[alg] = r
	}

	l2 := func(a, b [][3]float64) float64 {
		var sum2 float64
		for i := range a {
			for k := 0; k < 3; k++ {
				d := a[i][k] - b[i][k]
				sum2 += d * d
			}
		}
		return math.Sqrt(sum2 / float64(len(a)))
	}

	tb := metrics.NewTable("pair", "RMS L2 error [AU]", "< 1e-6")
	for i := 0; i < len(algs); i++ {
		for j := i + 1; j < len(algs); j++ {
			e := l2(results[algs[i]].pos, results[algs[j]].pos)
			tb.AddRow(fmt.Sprintf("%v vs %v", algs[i], algs[j]), e, e < 1e-6)
		}
	}
	c.render(tb)

	fmt.Println()
	tp := metrics.NewTable("algorithm", "total time", "bodies/s")
	for _, alg := range algs {
		tp.AddRow(alg.String(), results[alg].elapsed.Round(time.Millisecond).String(),
			metrics.Throughput(*n, *c.steps, results[alg].elapsed))
	}
	c.render(tp)
	ratio := results[core.BVH].elapsed.Seconds() / results[core.Octree].elapsed.Seconds()
	fmt.Printf("\nOctree outperforms BVH by %.2fx (paper: 3.3x on H100)\n", ratio)
	return nil
}

// runAblate measures the design-choice ablations DESIGN.md calls out.
func runAblate(fs *flag.FlagSet, args []string) error {
	c := addCommon(fs, 5)
	n := fs.Int("n", 100_000, "number of bodies")
	if err := fs.Parse(args); err != nil {
		return err
	}

	header("Ablations — galaxy workload (n=%d)", *n)
	tb, err := ablate(ablateRows(), galaxySystem(*n, *c.seed), c.runtime(par.Dynamic), *c.steps, *c.repeats)
	if err != nil {
		return err
	}
	c.render(tb)
	return nil
}

// ablateRow is one row of the ablation table.
type ablateRow struct {
	group, variant string
	cfg            core.Config
}

// ablateRows lists the ablation table. Several rows share a configuration
// (each group keeps its own baseline row); ablate measures each distinct
// configuration once.
func ablateRows() []ablateRow {
	rows := []ablateRow{
		// Octree rows labelled "(paper)" pin the walk layout: the flat
		// default builds the key-sorted tree and evaluates interaction
		// lists, which is neither the paper's build nor its traversal, and
		// has no scatter-or-gather choice to ablate. The BVH structure row
		// pins the paper's one body per leaf (the default is 4).
		{"structure", "octree (paper)", core.Config{Algorithm: core.Octree, Layout: core.LayoutWalk}},
		{"structure", "bvh (paper)", core.Config{Algorithm: core.BVH, BVH: bvh.Config{LeafSize: 1}}},
		{"criterion", "center-distance (paper)", core.Config{Algorithm: core.BVH}},
		{"criterion", "box-distance", core.Config{Algorithm: core.BVH, BVH: bvh.Config{Criterion: bvh.BoxDistance}}},
		{"moments", "scatter (paper)", core.Config{Algorithm: core.Octree, Layout: core.LayoutWalk}},
		{"moments", "gather", core.Config{Algorithm: core.Octree, Layout: core.LayoutWalk, Octree: octree.Config{GatherMoments: true}}},
		// The two builds under the same (per-body) traversal.
		{"build", "concurrent insertion (paper)", core.Config{Algorithm: core.Octree, Layout: core.LayoutWalk}},
		{"build", "key-sorted", core.Config{Algorithm: core.Octree, Layout: core.LayoutWalk, Octree: octree.Config{PresortMorton: true}}},
		// The two traversals over the same (key-sorted) tree.
		{"layout", "walk (key-sorted octree)", core.Config{Algorithm: core.Octree, Layout: core.LayoutWalk, Octree: octree.Config{PresortMorton: true}}},
		{"layout", "flat lists (octree)", core.Config{Algorithm: core.Octree}},
		{"layout", "walk (bvh)", core.Config{Algorithm: core.BVH, Layout: core.LayoutWalk}},
		{"layout", "flat lists (bvh)", core.Config{Algorithm: core.BVH}},
		{"bvh-leaf", "1 (paper)", core.Config{Algorithm: core.BVH, BVH: bvh.Config{LeafSize: 1}}},
		{"bvh-leaf", "2", core.Config{Algorithm: core.BVH, BVH: bvh.Config{LeafSize: 2}}},
		{"bvh-leaf", "4 (default)", core.Config{Algorithm: core.BVH}},
		{"bvh-leaf", "8", core.Config{Algorithm: core.BVH, BVH: bvh.Config{LeafSize: 8}}},
		{"bvh-leaf", "16", core.Config{Algorithm: core.BVH, BVH: bvh.Config{LeafSize: 16}}},
		{"tree-reuse", "rebuild every step (paper)", core.Config{Algorithm: core.Octree, Layout: core.LayoutWalk}},
		{"tree-reuse", "rebuild every 4 (octree)", core.Config{Algorithm: core.Octree, Layout: core.LayoutWalk, RebuildEvery: 4}},
		{"tree-reuse", "rebuild every 4 (bvh)", core.Config{Algorithm: core.BVH, RebuildEvery: 4}},
		{"tree-reuse", "refit thresh 0.02 (octree)", core.Config{Algorithm: core.Octree, Layout: core.LayoutWalk, RefitThreshold: 0.02}},
		{"tree-reuse", "refit thresh 0.02 (bvh)", core.Config{Algorithm: core.BVH, RefitThreshold: 0.02}},
	}
	for _, theta := range []float64{0.3, 0.5, 0.8} {
		for _, alg := range []core.Algorithm{core.Octree, core.BVH} {
			p := grav.DefaultParams()
			p.Theta = theta
			rows = append(rows, ablateRow{"theta", fmt.Sprintf("θ=%g (%v)", theta, alg), core.Config{Algorithm: alg, Params: p}})
		}
	}
	return rows
}

// ablate times every row on the galaxy system base, measuring each distinct
// configuration once: rows that share a configuration print one number, so
// the table's spread between them is not run-to-run noise.
func ablate(rows []ablateRow, base *body.System, rt *par.Runtime, steps, repeats int) (*metrics.Table, error) {
	tb := metrics.NewTable("ablation", "variant", "bodies/s", "ms/step")
	measured := make(map[core.Config]measurement)
	for _, row := range rows {
		cfg := row.cfg
		cfg.DT = galaxyDT
		cfg.Runtime = rt
		if cfg.Params == (grav.Params{}) {
			cfg.Params = grav.DefaultParams() // as core.New does, so θ=0.5 is the default row
		}
		m, ok := measured[cfg]
		if !ok {
			var err error
			if m, err = measure(cfg, base, steps, repeats); err != nil {
				return nil, fmt.Errorf("%s %s: %w", row.group, row.variant, err)
			}
			measured[cfg] = m
		}
		tb.AddRow(row.group, row.variant, m.throughput, float64(m.perStep.Microseconds())/1000)
	}
	return tb, nil
}
