// Command bench is the repository's benchmark: six named workloads, seven
// end-to-end metrics each, and a traced pass that attributes time to the
// layers between the soa force kernel and the router hop. BENCHMARK.json at
// the repository root declares every name, unit and bound; README.md in
// this directory says why each exists and what it is expected to move.
//
//	go run ./bench                              every workload, untraced then traced
//	go run ./bench -workload W -seed S -seconds T -trace 0|1
//	go run ./bench -calibrate 3                 repeat, print spreads and bounds
//	go run ./bench -compare a.json b.json       judge b against a by the bounds
//
// The measured program is driven from outside, through its public
// functions; nothing under internal/ is changed to measure it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "run this one workload in-process and end with the JSON result line (default: all, one child process each)")
		seed      = fs.Uint64("seed", 42, "seed of every generated input")
		seconds   = fs.Float64("seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
		ops       = fs.Int("ops", 0, "measure exactly this many operations per client instead of -seconds")
		trace     = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
		smoke     = fs.Bool("smoke", false, "shrink every input 50× and every count to a minimum: exercises all code, measures nothing")
		specPath  = fs.String("spec", "BENCHMARK.json", "the benchmark declaration")
		outDir    = fs.String("out", "bench/out", "directory for result, trace and scratch files")
		calibrate = fs.Int("calibrate", 0, "run every workload this many times (seeds seed, seed+1, …) and print each metric's spread and the bound it implies")
		compare   = fs.Bool("compare", false, "compare two result files given as arguments: bench -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	decl, err := loadDeclaration(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(decl.RunSeconds)
	}
	o := options{seed: *seed, lim: limit{seconds: *seconds, ops: *ops}, smoke: *smoke, outDir: *outDir}
	if *smoke && *ops == 0 {
		o.lim.seconds = min(o.lim.seconds, 0.1)
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(decl, fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *name != "":
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		res, err := runWorkload(decl, w, o, *trace == 1, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if err := printResult(stdout, res); err != nil || !res.Correct {
			return 1
		}
		return 0
	default:
		return runAll(decl, o, *specPath, max(*calibrate, 1), *calibrate > 0, stdout, stderr)
	}
}

// runWorkload runs one workload in this process, untraced or traced, and
// closes the report against the declared metric names.
func runWorkload(decl declaration, w spec, o options, traced bool, out io.Writer) (result, error) {
	w = w.scaled(o.smoke)
	rep := newReport(out)
	fmt.Fprintf(out, "# workload %s seed %d trace %v\n", w.name, o.seed, traced)
	var err error
	declared := decl.EndToEnd
	switch {
	case traced:
		declared = decl.PerLayer
		err = runTraced(w, o, rep)
	case w.serve():
		err = runServe(w, o, rep)
	default:
		err = runEngine(w, o, rep)
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	return rep.result(declared), nil
}
