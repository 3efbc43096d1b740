package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"time"
)

// metric is one reported number with its unit, as the result line carries
// it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one-line JSON object a single-workload run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics and correctness checks and prints each as
// it arrives: one `name value unit` line per metric.
type report struct {
	out     io.Writer
	metrics map[string]metric
	// ref is the run's reference probe (reference.go): an engine workload's
	// timings are reported relative to it. Nil otherwise, and the figures
	// are as measured.
	ref       *reference
	attempted int
	failed    int
	broken    []string // failed correctness checks
}

func newReport(out io.Writer) *report {
	return &report{out: out, metrics: map[string]metric{}}
}

// add records and prints one metric. A name reported twice, or a value that
// is not a finite number, is a defect in the benchmark and fails the run.
func (r *report) add(name string, v float64, unit string, note string) {
	if _, dup := r.metrics[name]; dup {
		r.check(false, "metric %s reported twice", name)
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.check(false, "metric %s is %v", name, v)
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		note = "  # " + note
	}
	fmt.Fprintf(r.out, "%-34s %14.6g %-8s%s\n", name, v, unit, note)
}

// addTime reports a duration as it would read on the reference host: the
// measured value divided by the run's slowdown so far. addRate does the same
// for a rate, which is multiplied.
func (r *report) addTime(name string, v float64, unit string, note string) {
	r.addScaled(name, v, 1/r.ref.slowdown(), unit, note)
}

func (r *report) addRate(name string, v float64, unit string, note string) {
	r.addScaled(name, v, r.ref.slowdown(), unit, note)
}

func (r *report) addScaled(name string, v, scale float64, unit string, note string) {
	if r.ref == nil {
		r.add(name, v, unit, note)
		return
	}
	if note != "" {
		note += ", "
	}
	r.add(name, v*scale, unit, fmt.Sprintf("%smeasured %.6g", note, v))
}

// check records a correctness check; a failed one makes the run incorrect.
func (r *report) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	msg := fmt.Sprintf(format, args...)
	r.broken = append(r.broken, msg)
	fmt.Fprintf(r.out, "CHECK FAILED: %s\n", msg)
}

// ops folds a window's attempts and failures into the run's totals. No
// workload may fail an operation, so any failure is also a failed check.
func (r *report) ops(l opLog) {
	r.attempted += len(l.lat)
	r.failed += l.failed
	r.check(l.failed == 0, "%d of %d operations failed", l.failed, len(l.lat))
}

// result closes the report against the declared metric names: exactly
// those must have been reported.
func (r *report) result(declared []metricSpec) result {
	for _, d := range declared {
		m, ok := r.metrics[d.Name]
		switch {
		case !ok:
			r.check(false, "metric %s was not reported", d.Name)
		case m.Unit != d.Unit:
			r.check(false, "metric %s reported in %q, declared in %q", d.Name, m.Unit, d.Unit)
		}
	}
	for name := range r.metrics {
		if !slices.ContainsFunc(declared, func(d metricSpec) bool { return d.Name == name }) {
			r.check(false, "metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return result{
		Correct:   len(r.broken) == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

// printResult writes res as the single closing JSON line.
func printResult(out io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// opLog is what a measured window of operations yields: one latency per
// attempted operation (failed ones included, so a failure never hides as a
// missing sample), the failures, and the window's wall time.
type opLog struct {
	lat    []float64 // ms
	failed int
	wall   time.Duration
}

func (l *opLog) merge(o opLog) {
	l.lat = append(l.lat, o.lat...)
	l.failed += o.failed
	l.wall = max(l.wall, o.wall)
}

// limit ends a measured window: after seconds of wall time, or after ops
// operations per client when ops > 0 (identical work on both sides of a
// paired comparison). At least one operation always runs.
type limit struct {
	seconds float64
	ops     int
}

// timeOps calls op repeatedly until lim is reached, timing each call.
func timeOps(lim limit, op func(k int) error) opLog {
	var l opLog
	start := time.Now()
	deadline := start.Add(time.Duration(lim.seconds * float64(time.Second)))
	for k := 0; ; k++ {
		t := time.Now()
		if k > 0 && (lim.ops > 0 && k >= lim.ops || lim.ops == 0 && !t.Before(deadline)) {
			break
		}
		err := op(k)
		l.lat = append(l.lat, float64(time.Since(t))/float64(time.Millisecond))
		if err != nil {
			l.failed++
		}
	}
	l.wall = time.Since(start)
	return l
}

// latencyMetrics reports the four end-to-end figures every workload derives
// from its window: throughput, median and tail latency — all three relative
// to the reference probe — and the share of operations that succeeded.
func (r *report) latencyMetrics(w spec, l opLog, bodySteps float64) {
	sorted := slices.Sorted(slices.Values(l.lat))
	n := len(sorted)
	tail := tailPercentile(n, w.tailPct)
	if r.ref != nil {
		fmt.Fprintf(r.out, "# reference probe: median %.4g ms of %d, nominal %.4g ms: this host is %.4g× slower; s: %.3g\n",
			1e3*median(r.ref.secs), len(r.ref.secs), 1e3*refNominal.Seconds(), r.ref.slowdown(), r.ref.secs)
	}
	r.addRate("body_steps_per_s", bodySteps/l.wall.Seconds(), "1/s", "")
	r.addTime("op_ms_p50", percentile(sorted, 50), "ms", fmt.Sprintf("%d ops", n))
	r.addTime("op_ms_tail", percentile(sorted, tail), "ms",
		fmt.Sprintf("p%g of %d ops, %d beyond", tail, n, samplesBeyond(n, tail)))
	r.add("ok_share", float64(n-l.failed)/float64(n), "share",
		fmt.Sprintf("failed_share %g", float64(l.failed)/float64(n)))
	fmt.Fprint(r.out, "# op ms")
	for _, p := range tailLadder {
		fmt.Fprintf(r.out, "  p%g %.4g", p, percentile(sorted, p))
	}
	fmt.Fprintf(r.out, "  max %.4g\n", sorted[n-1])
}
