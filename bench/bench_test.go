package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"nbody/internal/body"
)

const specFile = "../BENCHMARK.json"

func TestTailPercentileIsHighestWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, pick float64
	}{
		{50, 99, 80},    // 10 beyond p80, 5 beyond p90
		{240, 99, 95},   // 12 beyond p95, 2 beyond p99
		{16000, 99, 99}, // 160 beyond
		{27, 60, 60},    // exactly 10 beyond
		{24, 60, 50},    // p60 would leave 9: step down
		{16000, 90, 90}, // never above the workload's fixed percentile
		{5, 99, 50},     // nothing qualifies: the median
	} {
		if got := tailPercentile(c.n, c.want); got != c.pick {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.want, got, c.pick)
		}
	}
	// Exhaustively: the pick has ten beyond it and the next ladder step has not.
	for n := 20; n <= 3000; n++ {
		got := tailPercentile(n, 99)
		if beyond := samplesBeyond(n, got); beyond < minBeyond {
			t.Fatalf("n=%d: p%g has only %d samples beyond", n, got, beyond)
		}
		for _, p := range tailLadder {
			if p > got && samplesBeyond(n, p) >= minBeyond {
				t.Fatalf("n=%d: picked p%g although p%g still has %d beyond", n, got, p, samplesBeyond(n, p))
			}
		}
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 80); got != 8 {
		t.Errorf("p80 of 1..10 = %g, want 8 (two samples beyond)", got)
	}
}

// A shed request and a broken connection must each count as one failed
// operation whose latency is still recorded — with SDK retries off, so the
// failure is not turned into hidden waiting.
func TestFailedShareCountsShedAndTransportErrorsOnce(t *testing.T) {
	calls := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		switch calls {
		case 2:
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":{"code":"overloaded","message":"step queue full"}}`))
		case 4:
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close() // transport error on the client
		default:
			w.Write([]byte(`{"id":"s-1","requested":1,"completed":1,"steps":1}`))
		}
	}))
	defer ts.Close()

	w := spec{sessions: 1, clients: 1, stepsPerReq: 1, tailPct: 99, n: 10}
	st := &stack{w: w, ids: []string{"s-1"}}
	defer st.close()
	c, err := st.sdk(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	log, acked := closedLoop(w, st.overHTTP(c), 1, limit{ops: 6})
	if calls != 6 {
		t.Errorf("server saw %d requests for 6 ops: a failure was retried or skipped", calls)
	}
	if len(log.lat) != 6 || log.failed != 2 {
		t.Errorf("got %d latencies, %d failed; want 6 and 2", len(log.lat), log.failed)
	}
	if acked[0] != 4 {
		t.Errorf("acknowledged %d steps, want 4", acked[0])
	}

	var out bytes.Buffer
	rep := newReport(&out)
	rep.ref = &reference{secs: []float64{refNominal.Seconds()}}
	rep.ops(log)
	rep.latencyMetrics(w, log, 40)
	if got := rep.metrics["ok_share"].Value; math.Abs(got-4.0/6) > 1e-12 {
		t.Errorf("ok_share = %g, want 4/6", got)
	}
	if !strings.Contains(out.String(), "failed_share 0.333") {
		t.Errorf("failed_share not printed:\n%s", out.String())
	}
	res := rep.result(nil)
	if res.Correct || res.Failed != 2 || res.Attempted != 6 {
		t.Errorf("result %+v: a failed operation must fail the run and be counted", res)
	}
}

func TestSelfTimeIsSpanMinusCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "core.step", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: 12, End: 14},
		{ID: 6, Name: "other", Start: 0, End: 100},
	}
	// Covered: [10,50) and [90,100) = 50 ns of 100.
	if got, want := selfMS(spans, 1), 50.0/1e6; math.Abs(got-want) > 1e-15 {
		t.Errorf("selfMS = %g, want %g", got, want)
	}
	if got, want := selfMS(spans, 6), 100.0/1e6; got != want {
		t.Errorf("childless span: selfMS = %g, want its duration %g", got, want)
	}

	tr := newTracer()
	id := tr.newTrace()
	tr.call("outer", 0, id, func() { time.Sleep(time.Millisecond) })
	if s := tr.spans; len(s) != 1 || s[0].Name != "outer" || s[0].ms() < 1 || s[0].Trace != id {
		t.Errorf("recorded span %+v", s)
	}
}

func TestWindowEndsOnOpCountOrDeadline(t *testing.T) {
	n := 0
	log := timeOps(limit{seconds: 3600, ops: 7}, func(int) error { n++; return nil })
	if n != 7 || len(log.lat) != 7 {
		t.Errorf("ops=7 ran %d operations", n)
	}

	start := time.Now()
	log = timeOps(limit{seconds: 0.05}, func(int) error { time.Sleep(2 * time.Millisecond); return nil })
	if el := time.Since(start); el < 50*time.Millisecond || el > 2*time.Second {
		t.Errorf("50 ms window took %v", el)
	}
	if len(log.lat) < 2 {
		t.Errorf("50 ms window of 2 ms operations ran %d", len(log.lat))
	}

	if log = timeOps(limit{}, func(int) error { return errors.New("x") }); len(log.lat) != 1 || log.failed != 1 {
		t.Errorf("an empty limit must still run one operation, got %+v", log)
	}

	w := spec{sessions: 4, clients: 2, stepsPerReq: 3}
	log, acked := closedLoop(w, func(i, k int) (int, error) { return k, nil }, 2, limit{ops: 5})
	if len(log.lat) != 10 {
		t.Errorf("2 clients × 5 ops ran %d operations", len(log.lat))
	}
	// Client 0 owns sessions 0 and 2 and sends 0,2,0,2,0; client 1 likewise.
	if want := []int{9, 9, 6, 6}; !slices.Equal(acked, want) {
		t.Errorf("acknowledged steps per session %v, want %v", acked, want)
	}
}

// Timings are reported relative to the reference probe: on a host that runs
// the probe twice as slowly as nominal, a measured time halves and a measured
// rate doubles, and the measured value stays in the printed note.
func TestTimingsAreRelativeToTheReferenceProbe(t *testing.T) {
	var out bytes.Buffer
	rep := newReport(&out)
	rep.ref = &reference{secs: []float64{refNominal.Seconds(), 2 * refNominal.Seconds(), 3 * refNominal.Seconds()}}
	rep.addTime("op_ms_p50", 300, "ms", "7 ops")
	rep.addRate("body_steps_per_s", 1000, "1/s", "")
	if got := rep.metrics["op_ms_p50"].Value; got != 150 {
		t.Errorf("a 300 ms time on a 2× slower host reads %g, want 150", got)
	}
	if got := rep.metrics["body_steps_per_s"].Value; got != 2000 {
		t.Errorf("a rate of 1000 on a 2× slower host reads %g, want 2000", got)
	}
	if !strings.Contains(out.String(), "7 ops, measured 300") || !strings.Contains(out.String(), "# measured 1000") {
		t.Errorf("measured values not printed:\n%s", out.String())
	}

	ref, err := newReference(true)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	if got, want := ref.residentMB(), float64(refChaseBytes/50)/(1<<20); got != want {
		t.Errorf("residentMB = %g, want %g", got, want)
	}
	// A timed window is cut into refSegments parts that add up to it; only
	// the first cut is probed here, the others fall within refMinGap.
	var parts []limit
	log := ref.window(limit{seconds: 0.06}, func(l limit) opLog {
		parts = append(parts, l)
		return opLog{lat: []float64{1, 2}, failed: 1, wall: 10 * time.Millisecond}
	})
	if len(parts) != refSegments || math.Abs(parts[0].seconds-0.06/refSegments) > 1e-12 {
		t.Errorf("window parts %+v", parts)
	}
	if len(log.lat) != 2*refSegments || log.failed != refSegments || log.wall != refSegments*10*time.Millisecond {
		t.Errorf("joined log %+v", log)
	}
	if len(ref.secs) != 1 || ref.secs[0] <= 0 || ref.slowdown() <= 0 {
		t.Errorf("probe times %v", ref.secs)
	}
	// A window that counts operations is one part.
	parts = nil
	ref.window(limit{ops: 5}, func(l limit) opLog { parts = append(parts, l); return opLog{} })
	if len(parts) != 1 || parts[0].ops != 5 {
		t.Errorf("an op-count window must stay whole, got %+v", parts)
	}
}

func TestDirectSumAndGate(t *testing.T) {
	// Two unit masses one unit apart, unsoftened: |a| = G m / r² = 2.
	sys := body.NewSystem(2)
	sys.Mass[0], sys.Mass[1] = 1, 1
	sys.PosX[1] = 1
	ax, ay, az := directAccel(sys, []int{0, 1}, 2, 0)
	if ax[0] != 2 || ax[1] != -2 || ay[0] != 0 || az[1] != 0 {
		t.Errorf("directAccel = %v %v %v", ax, ay, az)
	}
	// A solver that is 1 % off on every body is 1 % off at the 90th percentile.
	sys.AccX[0], sys.AccX[1] = 2.02, -2.02
	var l2 l2Accum
	l2.add(sys, []int{0, 1}, 2, 0)
	if got := l2.p90(); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("relative L2 error = %g, want 0.01", got)
	}

	w := spec{l2Ref: 1e-3}
	pass, fail := newReport(new(bytes.Buffer)), newReport(new(bytes.Buffer))
	pass.l2Metric(w, 1.9e-3)
	fail.l2Metric(w, 2.1e-3)
	if len(pass.broken) != 0 || len(fail.broken) != 1 {
		t.Errorf("gate at 2× the recorded error: pass broke %v, fail broke %v", pass.broken, fail.broken)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "body_steps_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want verdict
	}{
		{"within the bound", lower, []float64{100, 101, 102}, []float64{105, 106, 107}, verdictOK},
		{"slower past the bound", lower, []float64{100, 101, 102}, []float64{115, 116, 117}, verdictWorse},
		{"faster", lower, []float64{100, 101, 102}, []float64{80, 81, 82}, verdictOK},
		{"throughput drop", higher, []float64{100, 101, 102}, []float64{85, 86, 87}, verdictWorse},
		{"throughput gain", higher, []float64{100, 101, 102}, []float64{120, 121, 122}, verdictOK},
		{"noise wider than the bound", lower, []float64{90, 100, 115}, []float64{95, 104, 118}, verdictUnresolved},
		{"noisy but every run better", lower, []float64{90, 100, 115}, []float64{60, 70, 80}, verdictOK},
		{"noisy and every run worse", lower, []float64{90, 100, 115}, []float64{130, 140, 150}, verdictWorse},
		{"single samples", lower, []float64{100}, []float64{120}, verdictWorse},
	} {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if got := impliedBound(0.004); got != 0.03 {
		t.Errorf("impliedBound floors at 3%%, got %g", got)
	}
	if got := impliedBound(0.04); got != 0.08 {
		t.Errorf("impliedBound(4%%) = %g, want 8%%", got)
	}
}

func TestCompareRefusesAnotherHost(t *testing.T) {
	decl, err := loadDeclaration(specFile)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mk := func(run string, h host, p50 float64) string {
		f := runFile{Run: run, Host: h, Seconds: 12, Workloads: map[string]*workloadRuns{}}
		for _, wd := range decl.Workloads {
			wr := &workloadRuns{Correct: true, EndToEnd: map[string][]float64{}}
			for _, m := range decl.EndToEnd {
				wr.EndToEnd[m.Name] = []float64{1}
			}
			wr.EndToEnd["op_ms_p50"] = []float64{p50}
			f.Workloads[wd.Name] = wr
		}
		path, err := writeRunFile(dir, f)
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	here := thisHost()
	elsewhere := here
	elsewhere.NProc += 2
	base := mk("base", here, 100)

	var out, errOut bytes.Buffer
	if code := compareFiles(decl, base, mk("same", here, 104), &out, &errOut); code != 0 {
		t.Errorf("4%% slower on the same host: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := compareFiles(decl, base, mk("slow", here, 130), &out, &errOut); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("30%% slower: exit %d\n%s", code, out.String())
	}
	if code := compareFiles(decl, base, mk("other", elsewhere, 100), &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "refusing") {
		t.Errorf("another host: exit %d, stderr %q", code, errOut.String())
	}
}

// The smoke pass runs every workload, untraced and traced, at 1/50 of its
// size through the same entry point the command line uses, and checks the
// contract of the output: every metric BENCHMARK.json declares is printed
// exactly once, with its declared unit, and the closing JSON line carries
// exactly those names.
func TestSmokeEveryWorkloadPrintsEveryDeclaredMetricOnce(t *testing.T) {
	decl, err := loadDeclaration(specFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloads()))
	}
	out := t.TempDir()
	for _, wd := range decl.Workloads {
		for trace, declared := range [][]metricSpec{decl.EndToEnd, decl.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"-smoke", "-workload", wd.Name, "-spec", specFile, "-out", out, "-seed", "7"}
			if trace == 1 {
				args = append(args, "--trace", "1")
			}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %d: exit %d\n%s%s", wd.Name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			printed := map[string][]string{} // name → units, one per printed line
			for _, line := range lines[:len(lines)-1] {
				if f := strings.Fields(line); len(f) >= 3 && !strings.HasPrefix(line, "#") {
					printed[f[0]] = append(printed[f[0]], f[2])
				}
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: last line is not the result: %v", wd.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: result %+v", wd.Name, trace, res)
			}
			if len(res.Metrics) != len(declared) || len(printed) != len(declared) {
				t.Errorf("%s trace %d: %d metrics in the result, %d printed, %d declared", wd.Name, trace, len(res.Metrics), len(printed), len(declared))
			}
			for _, d := range declared {
				if units := printed[d.Name]; len(units) != 1 || units[0] != d.Unit {
					t.Errorf("%s trace %d: %s printed with units %v, want once in %q", wd.Name, trace, d.Name, units, d.Unit)
				}
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s trace %d: result carries %s as %+v", wd.Name, trace, d.Name, m)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(out, wd.Name+"-seed7.trace.json")); err != nil {
			t.Errorf("%s: traced pass left no span file: %v", wd.Name, err)
		}
	}
}

func TestDeclarationIsWithinTheContract(t *testing.T) {
	decl, err := loadDeclaration(specFile)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads() {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, decl.Workloads[i].Name, w.name)
		}
		if n := len(decl.Workloads[i].Why); n > 200 {
			t.Errorf("%s: why has %d characters, limit 200", w.name, n)
		}
	}
	setup := false
	for _, m := range decl.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(decl.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(decl.PerLayer))
	}
}
