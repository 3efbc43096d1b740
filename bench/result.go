package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// host is the fingerprint two result files must share to be compared:
// numbers from different machines or toolchains are not like with like.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
}

func thisHost() host {
	h := host{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// commit names the measured source: the git revision when the checkout has
// one, "unknown" otherwise (the benchmark driver's checkout has none).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
		rev += "-dirty"
	}
	return rev
}

// runFile is bench/out/<run>.json: everything one invocation measured, with
// what is needed to decide whether another file is comparable to it.
type runFile struct {
	Run       string                   `json:"run"`
	Started   time.Time                `json:"started"`
	Commit    string                   `json:"commit"`
	Host      host                     `json:"host"`
	Seed      uint64                   `json:"seed"`
	Seconds   float64                  `json:"seconds"`
	Ops       int                      `json:"ops,omitempty"`
	Smoke     bool                     `json:"smoke,omitempty"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

// workloadRuns holds one workload's samples: a value per repetition and
// metric (repetition r ran with seed+r).
type workloadRuns struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string][]float64 `json:"per_layer,omitempty"`
}

// runAll runs every declared workload in a child process of its own — so
// heap, pools and the parallel runtime start fresh — untraced and then
// traced, reps times over, prints the medians and writes the result file.
// With calibrate it prints each end-to-end metric's spread and the bound
// that spread implies, and skips the traced passes.
func runAll(decl declaration, o options, specPath string, reps int, calibrate bool, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	started := time.Now()
	file := runFile{
		Run:     fmt.Sprintf("%s-seed%d", started.UTC().Format("20060102T150405Z"), o.seed),
		Started: started, Commit: commit(), Host: thisHost(),
		Seed: o.seed, Seconds: o.lim.seconds, Ops: o.lim.ops, Smoke: o.smoke,
		Workloads: map[string]*workloadRuns{},
	}
	fmt.Fprintf(stdout, "# run %s commit %s on %s, %d cpus, GOMAXPROCS %d, %s\n",
		file.Run, file.Commit, file.Host.CPU, file.Host.NProc, file.Host.GOMAXPROCS, file.Host.Go)

	ok := true
	for rep := 0; rep < reps; rep++ {
		for _, wd := range decl.Workloads {
			wr := file.Workloads[wd.Name]
			if wr == nil {
				wr = &workloadRuns{Correct: true, EndToEnd: map[string][]float64{}, PerLayer: map[string][]float64{}}
				file.Workloads[wd.Name] = wr
			}
			for trace := 0; trace <= 1; trace++ {
				if trace == 1 && calibrate {
					continue
				}
				args := []string{
					"-workload", wd.Name, "-spec", specPath, "-out", o.outDir,
					"-seed", strconv.FormatUint(o.seed+uint64(rep), 10),
					"-seconds", strconv.FormatFloat(o.lim.seconds, 'g', -1, 64),
					"-ops", strconv.Itoa(o.lim.ops),
					"-trace", strconv.Itoa(trace),
					"-smoke=" + strconv.FormatBool(o.smoke),
				}
				res, err := runChild(exe, args, stdout, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s (trace %d): %v\n", wd.Name, trace, err)
					wr.Correct, ok = false, false
					continue
				}
				into := wr.EndToEnd
				if trace == 1 {
					into = wr.PerLayer
				} else {
					wr.Attempted += res.Attempted
					wr.Failed += res.Failed
				}
				for name, m := range res.Metrics {
					into[name] = append(into[name], m.Value)
				}
				if !res.Correct {
					wr.Correct, ok = false, false
				}
			}
		}
	}

	printSummary(stdout, decl, file, calibrate)
	path, err := writeRunFile(o.outDir, file)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "# wrote %s in %.0fs\n", path, time.Since(started).Seconds())
	if !ok {
		fmt.Fprintln(stdout, "FAILED: at least one workload failed a check or did not finish")
		return 1
	}
	return 0
}

// runChild runs one single-workload child, relays its output and decodes
// the JSON result on its last line.
func runChild(exe string, args []string, stdout, stderr io.Writer) (result, error) {
	var buf bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = io.MultiWriter(stdout, &buf)
	cmd.Stderr = stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return res, runErr
		}
		return res, fmt.Errorf("no result line: %w", err)
	}
	// A child that printed a result but exited non-zero failed a check;
	// its result says so itself.
	return res, nil
}

func writeRunFile(dir string, f runFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, f.Run+".json")
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRunFile(path string) (runFile, error) {
	var f runFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// printSummary prints one row per workload and end-to-end metric: the
// median over the repetitions and, when calibrating, the spread and the
// bound the calibration rule derives from it.
func printSummary(out io.Writer, decl declaration, f runFile, calibrate bool) {
	w := bufio.NewWriter(out)
	defer w.Flush()
	fmt.Fprintf(w, "\n%-24s %-18s %14s %-6s", "workload", "metric", "median", "unit")
	if calibrate {
		fmt.Fprintf(w, " %8s %8s %8s", "spread", "implied", "declared")
	}
	fmt.Fprintln(w)
	for _, wd := range decl.Workloads {
		wr := f.Workloads[wd.Name]
		if wr == nil {
			continue
		}
		for _, m := range decl.EndToEnd {
			vals := wr.EndToEnd[m.Name]
			if len(vals) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-24s %-18s %14.6g %-6s", wd.Name, m.Name, median(vals), m.Unit)
			if calibrate {
				fmt.Fprintf(w, " %8.4f %8.3f %8.3f", relSpread(vals), impliedBound(relSpread(vals)), m.Bound)
			}
			fmt.Fprintln(w)
		}
	}
	if calibrate {
		fmt.Fprintln(w, "\n# a metric's bound in BENCHMARK.json is the largest `implied` over the workloads:")
		for _, m := range decl.EndToEnd {
			worst := 0.0
			for _, wr := range f.Workloads {
				worst = max(worst, relSpread(wr.EndToEnd[m.Name]))
			}
			fmt.Fprintf(w, "%-18s spread %.4f → bound %.3f (declared %.3f)\n", m.Name, worst, impliedBound(worst), m.Bound)
		}
	}
}

// impliedBound is the calibration rule: twice the observed spread, but
// never under 3 %.
func impliedBound(spread float64) float64 { return max(0.03, 2*spread) }

// verdict is how one metric on one workload compares between two files.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// judge compares candidate samples b against baseline samples a for a
// metric with the given direction and bound. The medians decide, unless the
// run-to-run spread of either side exceeds the bound: then the difference
// cannot be told from noise and the row is unresolved — except when every
// run of one side beats every run of the other, which no spread explains.
func judge(m metricSpec, a, b []float64) (verdict, float64) {
	// Orient every value so that larger is worse.
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	worst := func(xs []float64) float64 { return max(sign*slices.Max(xs), sign*slices.Min(xs)) }
	best := func(xs []float64) float64 { return min(sign*slices.Max(xs), sign*slices.Min(xs)) }
	worsening := sign * (median(b) - median(a)) / math.Abs(median(a))
	separated := worst(b) < best(a) || best(b) > worst(a)
	noisy := max(relSpread(a), relSpread(b)) > m.Bound
	switch {
	case noisy && !separated:
		return verdictUnresolved, worsening
	case worsening > m.Bound:
		return verdictWorse, worsening
	}
	return verdictOK, worsening
}

// compareFiles judges result file b against baseline a with the bounds of
// BENCHMARK.json, one row per workload and end-to-end metric. It refuses
// files from different hosts and returns non-zero unless every row is ok.
func compareFiles(decl declaration, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRunFile(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readRunFile(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if a.Host != b.Host {
		fmt.Fprintf(stderr, "bench: host fingerprints differ, refusing to compare:\n  %s: %+v\n  %s: %+v\n", pathA, a.Host, pathB, b.Host)
		return 2
	}
	if a.Seconds != b.Seconds || a.Ops != b.Ops || a.Smoke != b.Smoke {
		fmt.Fprintf(stderr, "bench: run lengths differ (%gs/%d ops vs %gs/%d ops), refusing to compare\n", a.Seconds, a.Ops, b.Seconds, b.Ops)
		return 2
	}
	return compareRuns(decl, a, b, stdout)
}

func compareRuns(decl declaration, a, b runFile, out io.Writer) int {
	fmt.Fprintf(out, "baseline %s (%s) vs candidate %s (%s)\n", a.Run, a.Commit, b.Run, b.Commit)
	fmt.Fprintf(out, "%-24s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "baseline", "candidate", "worsening", "bound", "verdict")
	bad := 0
	for _, wd := range decl.Workloads {
		wa, wb := a.Workloads[wd.Name], b.Workloads[wd.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(out, "%-24s missing from one file\n", wd.Name)
			bad++
			continue
		}
		if !wa.Correct || !wb.Correct {
			fmt.Fprintf(out, "%-24s failed its correctness checks in one file\n", wd.Name)
			bad++
		}
		for _, m := range decl.EndToEnd {
			va, vb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(out, "%-24s %-18s missing from one file\n", wd.Name, m.Name)
				bad++
				continue
			}
			v, worsening := judge(m, va, vb)
			if v != verdictOK {
				bad++
			}
			fmt.Fprintf(out, "%-24s %-18s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n",
				wd.Name, m.Name, median(va), median(vb), 100*worsening, 100*m.Bound, v)
		}
	}
	if bad > 0 {
		fmt.Fprintf(out, "%d rows are not ok\n", bad)
		return 1
	}
	fmt.Fprintln(out, "every row ok")
	return 0
}
