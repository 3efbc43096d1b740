// Command nbody runs a Barnes-Hut (or all-pairs) N-body simulation from the
// command line, printing per-phase timings, throughput and conservation
// diagnostics.
//
// Examples:
//
//	nbody -algo octree -workload galaxy -n 100000 -steps 100
//	nbody -algo bvh -n 1000000 -steps 10 -leaf-size 1
//	nbody -algo all-pairs -n 10000 -seq
//	nbody -workload solarsystem -n 100000 -dt 0.0417 -g 2.959e-4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nbody/internal/body"
	"nbody/internal/bvh"
	"nbody/internal/core"
	"nbody/internal/grav"
	"nbody/internal/metrics"
	"nbody/internal/octree"
	"nbody/internal/par"
	"nbody/internal/snapshot"
	"nbody/internal/trace"
	"nbody/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nbody:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		algoName  = flag.String("algo", "octree", "algorithm: "+core.AlgorithmNames())
		wlName    = flag.String("workload", "galaxy", "workload: galaxy, galaxy-single, plummer, uniform, clusters, solarsystem")
		n         = flag.Int("n", 100000, "number of bodies")
		steps     = flag.Int("steps", 10, "timesteps to integrate")
		dt        = flag.Float64("dt", 1e-5, "timestep")
		theta     = flag.Float64("theta", 0.5, "Barnes-Hut opening threshold")
		eps       = flag.Float64("eps", 1e-3, "Plummer softening length")
		g         = flag.Float64("g", 1, "gravitational constant")
		seed      = flag.Uint64("seed", 42, "workload seed")
		workers   = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		schedStr  = flag.String("sched", "dynamic", "scheduler: dynamic, static, guided")
		seq       = flag.Bool("seq", false, "sequential execution (replaces every policy with seq)")
		rebuild   = flag.Int("rebuild-every", 1, "rebuild the tree every k steps (tree reuse for k>1)")
		leafSize  = flag.Int("leaf-size", 0, "BVH bodies per leaf (0 = the package default, 4)")
		gather    = flag.Bool("gather-moments", false, "octree: gather-variant multipole reduction")
		diagEach  = flag.Int("diag-every", 0, "print diagnostics every k steps (0 = only at start/end)")
		exact     = flag.Bool("exact-energy", false, "use the O(N²) potential for diagnostics")
		tracePath = flag.String("trace", "", "write per-step diagnostics CSV to this file (samples at -diag-every)")
		snapPath  = flag.String("snapshot", "", "write a final body snapshot CSV to this file")
		savePath  = flag.String("save", "", "write a binary checkpoint of the final state to this file")
		loadPath  = flag.String("load", "", "resume from a binary checkpoint instead of generating a workload")
	)
	flag.Parse()

	alg, err := core.ParseAlgorithm(*algoName)
	if err != nil {
		return err
	}
	sched, err := parseScheduler(*schedStr)
	if err != nil {
		return err
	}
	var sys *body.System
	startStep := 0
	if *loadPath != "" {
		var meta snapshot.Meta
		sys, meta, err = snapshot.Load(*loadPath)
		if err != nil {
			return err
		}
		startStep = meta.Step
		fmt.Printf("resumed %d bodies from %s (step %d, t=%g)\n", sys.N(), *loadPath, meta.Step, meta.Time)
	} else {
		sys, err = workload.ByName(*wlName, *n, *seed)
		if err != nil {
			return err
		}
	}

	cfg := core.Config{
		Algorithm:    alg,
		Params:       grav.Params{G: *g, Eps: *eps, Theta: *theta},
		DT:           *dt,
		Runtime:      par.NewRuntime(*workers, sched),
		Sequential:   *seq,
		RebuildEvery: *rebuild,
		Octree:       octree.Config{GatherMoments: *gather},
		BVH:          bvh.Config{LeafSize: *leafSize},
	}
	sim, err := core.New(cfg, sys)
	if err != nil {
		return err
	}

	fmt.Printf("algorithm=%v workload=%s n=%d steps=%d dt=%g θ=%g ε=%g G=%g workers=%d sched=%v seq=%v\n\n",
		alg, *wlName, sys.N(), *steps, *dt, *theta, *eps, *g, cfg.Runtime.Workers(), sched, *seq)

	var rec *trace.Recorder
	if *tracePath != "" {
		rec = trace.NewRecorder(*dt)
		rec.Record(sim, *exact)
	}

	d0 := sim.Diagnostics(*exact)
	printDiag("initial", d0)

	// Ctrl-C / SIGTERM cancels the run at the next step boundary instead of
	// killing the process: the loop exits cleanly and the trace, snapshot
	// and checkpoint outputs below are still written.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	stepsDone := 0
	for s := 1; s <= *steps; s++ {
		if err := sim.RunContext(ctx, 1); err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "\ninterrupted after %d steps; writing outputs\n", stepsDone)
				break
			}
			return err
		}
		stepsDone = s
		if *diagEach > 0 && s%*diagEach == 0 {
			printDiag(fmt.Sprintf("step %d", s), sim.Diagnostics(*exact))
			if rec != nil {
				rec.Record(sim, *exact)
			}
		}
	}
	elapsed := time.Since(start)

	if rec != nil {
		rec.Record(sim, *exact)
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if err := rec.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote diagnostics trace to %s (max energy drift %.3e)\n", *tracePath, rec.EnergyDrift())
	}
	if *savePath != "" {
		meta := snapshot.Meta{Step: startStep + stepsDone, Time: float64(startStep+stepsDone) * *dt}
		if err := snapshot.Save(*savePath, sys, meta); err != nil {
			return err
		}
		fmt.Printf("wrote checkpoint to %s (step %d)\n", *savePath, meta.Step)
	}
	if *snapPath != "" {
		f, err := os.Create(*snapPath)
		if err != nil {
			return err
		}
		if err := trace.WriteSnapshotCSV(f, stepsDone, sys); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote final snapshot to %s\n", *snapPath)
	}

	d1 := sim.Diagnostics(*exact)
	printDiag("final", d1)
	fmt.Printf("\nenergy drift: %.3e (relative)\n", relDrift(d1.TotalEnergy, d0.TotalEnergy))
	fmt.Printf("mass drift:   %.3e (relative)\n\n", relDrift(d1.Mass, d0.Mass))

	fmt.Println("phase breakdown:")
	fmt.Println(sim.Breakdown())
	fmt.Printf("\nthroughput: %.3e bodies·steps/s (%v per step)\n",
		metrics.Throughput(sys.N(), stepsDone, elapsed), (elapsed / time.Duration(max(stepsDone, 1))).Round(time.Microsecond))
	return nil
}

func parseScheduler(s string) (par.Scheduler, error) {
	switch s {
	case "dynamic":
		return par.Dynamic, nil
	case "static":
		return par.Static, nil
	case "guided":
		return par.Guided, nil
	}
	return 0, fmt.Errorf("unknown scheduler %q", s)
}

func printDiag(label string, d core.Diagnostics) {
	fmt.Printf("%-8s E=%+.6e (K=%.4e U=%+.4e)  |p|=%.3e  M=%.6e\n",
		label, d.TotalEnergy, d.KineticEnergy, d.Potential, d.Momentum.Norm(), d.Mass)
}

func relDrift(now, was float64) float64 {
	if was == 0 {
		return 0
	}
	return abs(now-was) / abs(was)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
