package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"nbody/internal/body"
	"nbody/internal/core"
	"nbody/internal/metrics"
	"nbody/internal/par"
	"nbody/internal/soa"
	"nbody/internal/workload"
)

// common holds the flags every subcommand shares.
type common struct {
	steps   *int
	repeats *int
	workers *int
	seed    *uint64
	csv     *bool
	svg     *string
	layout  *string
}

func addCommon(fs *flag.FlagSet, defaultSteps int) *common {
	return &common{
		steps:   fs.Int("steps", defaultSteps, "timed steps per measurement"),
		repeats: fs.Int("repeats", 3, "take the best of this many repeats"),
		workers: fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)"),
		seed:    fs.Uint64("seed", 42, "workload seed"),
		csv:     fs.Bool("csv", false, "emit CSV instead of an aligned table"),
		svg:     fs.String("svg", "", "additionally render the figure as SVG to this file"),
		layout:  fs.String("layout", "flat", "force-evaluation layout: flat (interaction lists) or walk (per-body)"),
	}
}

// coreLayout parses the -layout flag.
func (c *common) coreLayout() (core.Layout, error) { return core.ParseLayout(*c.layout) }

// parseAlgs resolves a comma-separated -algs value, or def when empty.
func parseAlgs(spec string, def []core.Algorithm) ([]core.Algorithm, error) {
	if spec == "" {
		return def, nil
	}
	var out []core.Algorithm
	for _, name := range strings.Split(spec, ",") {
		a, err := core.ParseAlgorithm(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// writeSVG renders a chart to the -svg path if one was given.
func (c *common) writeSVG(render func(w io.Writer) error) error {
	if *c.svg == "" {
		return nil
	}
	f, err := os.Create(*c.svg)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", *c.svg)
	return nil
}

// render prints tb as a table or CSV per the -csv flag.
func (c *common) render(tb *metrics.Table) {
	if *c.csv {
		tb.RenderCSV(os.Stdout)
	} else {
		tb.Render(os.Stdout)
	}
}

// galaxyDT resolves the innermost disk orbits of the galaxy workload.
const galaxyDT = 1e-5

// measurement is one benchmark data point.
type measurement struct {
	throughput float64 // bodies·steps/s, best repeat
	perStep    time.Duration
	breakdown  metrics.Breakdown // from the best repeat
}

// measure times `steps` simulation steps of cfg on a clone of base, taking
// the best of `repeats`. The first step of each repeat (initial force
// computation, pool sizing) is excluded as warm-up.
func measure(cfg core.Config, base *body.System, steps, repeats int) (measurement, error) {
	var best measurement
	for rep := 0; rep < repeats; rep++ {
		sim, err := core.New(cfg, base.Clone())
		if err != nil {
			return measurement{}, err
		}
		if err := sim.Step(); err != nil {
			return measurement{}, err
		}
		sim.Breakdown().Reset()

		start := time.Now()
		if err := sim.Run(steps); err != nil {
			return measurement{}, err
		}
		elapsed := time.Since(start)

		tp := metrics.Throughput(base.N(), steps, elapsed)
		if tp > best.throughput {
			best.throughput = tp
			best.perStep = elapsed / time.Duration(steps)
			best.breakdown = *sim.Breakdown()
		}
	}
	return best, nil
}

// galaxySystem builds (once) the paper's galaxy-collision workload.
func galaxySystem(n int, seed uint64) *body.System {
	return workload.GalaxyCollision(n, seed)
}

// runtimeFor builds the runtime a subcommand's flags selected.
func (c *common) runtime(sched par.Scheduler) *par.Runtime {
	return par.NewRuntime(*c.workers, sched)
}

// header prints an experiment banner and, under it, the environment the
// numbers come from — including which force kernel soa.Accel dispatches to
// on this machine, so a throughput is never read without its arithmetic.
func header(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
	fmt.Printf("env: %s/%s, %s, %d CPUs, force kernel %s\n\n",
		runtime.GOOS, runtime.GOARCH, runtime.Version(), runtime.NumCPU(), soa.Kernel())
}
