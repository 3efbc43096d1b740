package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

var testRuntimes = []*Runtime{
	NewRuntime(1, Dynamic),
	NewRuntime(2, Static),
	NewRuntime(4, Dynamic),
	NewRuntime(4, Static),
	NewRuntime(4, Guided),
	NewRuntime(0, Dynamic), // GOMAXPROCS workers
	NewRuntime(3, Guided).WithGrain(7),
	NewRuntime(8, Dynamic).WithGrain(1),
}

var allPolicies = []Policy{Seq, Par, ParUnseq}

func TestForCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, r := range testRuntimes {
		for _, p := range allPolicies {
			for _, n := range []int{0, 1, 2, 7, 63, 64, 65, 1000, 4096} {
				visits := make([]atomic.Int32, max(n, 1))
				r.For(p, n, func(i int) {
					if i < 0 || i >= n {
						t.Errorf("%v %v n=%d: index %d out of range", r, p, n, i)
						return
					}
					visits[i].Add(1)
				})
				for i := 0; i < n; i++ {
					if c := visits[i].Load(); c != 1 {
						t.Fatalf("%v %v n=%d: index %d visited %d times", r, p, n, i, c)
					}
				}
			}
		}
	}
}

func TestForGrainRangesPartition(t *testing.T) {
	for _, r := range testRuntimes {
		for _, p := range allPolicies {
			for _, n := range []int{1, 100, 1023, 10000} {
				for _, grain := range []int{0, 1, 13, 1 << 20} {
					visits := make([]atomic.Int32, n)
					r.ForGrain(p, n, grain, func(lo, hi int) {
						if lo >= hi {
							t.Errorf("empty range [%d,%d)", lo, hi)
						}
						for i := lo; i < hi; i++ {
							visits[i].Add(1)
						}
					})
					for i := 0; i < n; i++ {
						if c := visits[i].Load(); c != 1 {
							t.Fatalf("%v %v n=%d grain=%d: index %d visited %d times", r, p, n, grain, i, c)
						}
					}
				}
			}
		}
	}
}

func TestForZeroAndNegative(t *testing.T) {
	r := NewRuntime(4, Dynamic)
	called := false
	r.For(Par, 0, func(int) { called = true })
	r.For(Par, -5, func(int) { called = true })
	if called {
		t.Error("body called for non-positive n")
	}
}

func TestSeqRunsInline(t *testing.T) {
	r := NewRuntime(8, Dynamic)
	order := []int{}
	r.For(Seq, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("Seq order = %v", order)
		}
	}
}

func TestForPanicPropagates(t *testing.T) {
	for _, p := range []Policy{Seq, Par, ParUnseq} {
		func() {
			defer func() {
				if v := recover(); v != "boom" {
					t.Errorf("policy %v: recovered %v, want boom", p, v)
				}
			}()
			NewRuntime(4, Dynamic).For(p, 1000, func(i int) {
				if i == 517 {
					panic("boom")
				}
			})
		}()
	}
}

func TestPanicPropagatesAllSchedulers(t *testing.T) {
	for _, s := range []Scheduler{Static, Dynamic, Guided} {
		func() {
			defer func() {
				if v := recover(); v == nil {
					t.Errorf("scheduler %v: no panic propagated", s)
				}
			}()
			NewRuntime(4, s).For(Par, 10000, func(i int) {
				if i == 9999 {
					panic("late panic")
				}
			})
		}()
	}
}

func TestParSupportsBlocking(t *testing.T) {
	// A lock shared between iterations must not deadlock under Par —
	// this is the parallel-forward-progress guarantee the Concurrent
	// Octree build relies on.
	r := NewRuntime(8, Dynamic).WithGrain(1)
	var lock atomic.Int32
	total := 0
	r.For(Par, 1000, func(int) {
		for !lock.CompareAndSwap(0, 1) {
			// spin: another iteration holds the lock
		}
		total++
		lock.Store(0)
	})
	if total != 1000 {
		t.Errorf("critical-section count = %d", total)
	}
}

// sumRange folds [lo, hi) into acc; with intSum it is the index-sum reduce
// the tests below drive ReduceRanges with.
func sumRange(acc, lo, hi int) int {
	for i := lo; i < hi; i++ {
		acc += i
	}
	return acc
}

func intSum(a, b int) int { return a + b }

func TestReduceSum(t *testing.T) {
	for _, r := range testRuntimes {
		for _, p := range allPolicies {
			for _, n := range []int{0, 1, 100, 10000} {
				got := ReduceRanges(r, p, n, 0, intSum, sumRange)
				want := n * (n - 1) / 2
				if got != want {
					t.Errorf("%v %v n=%d: sum = %d, want %d", r, p, n, got, want)
				}
			}
		}
	}
}

func TestReduceNonCommutativeGrouping(t *testing.T) {
	// Combine is associative but not commutative (string concat): the
	// parallel reduce must still produce the sequential result because
	// partials are combined in worker order over contiguous blocks.
	r := NewRuntime(4, Static).WithGrain(1)
	got := ReduceRanges(r, Par, 26, "", func(a, b string) string { return a + b },
		func(acc string, lo, hi int) string {
			for i := lo; i < hi; i++ {
				acc += string(rune('a' + i))
			}
			return acc
		})
	if got != "abcdefghijklmnopqrstuvwxyz" {
		t.Errorf("reduce = %q", got)
	}
}

func TestReduceRanges(t *testing.T) {
	for _, r := range testRuntimes {
		got := ReduceRanges(r, Par, 1000, 0,
			func(a, b int) int { return a + b },
			func(acc, lo, hi int) int {
				for i := lo; i < hi; i++ {
					acc += i * i
				}
				return acc
			})
		want := 0
		for i := 0; i < 1000; i++ {
			want += i * i
		}
		if got != want {
			t.Errorf("%v: sum of squares = %d, want %d", r, got, want)
		}
	}
}

func TestReducePanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic propagated from Reduce")
		}
	}()
	ReduceRanges(NewRuntime(4, Dynamic), Par, 1000, 0, intSum,
		func(acc, lo, hi int) int {
			if lo <= 700 && 700 < hi {
				panic("reduce boom")
			}
			return sumRange(acc, lo, hi)
		})
}

func TestDefaultRuntime(t *testing.T) {
	r := Default()
	if r.Workers() != runtime.GOMAXPROCS(0) || r.Scheduler() != Dynamic || r.Grain() != DefaultGrain {
		t.Errorf("Default() = %v", r)
	}
	if Default() != r {
		t.Error("Default() is not one shared runtime")
	}
}

func TestRuntimeAccessors(t *testing.T) {
	r := NewRuntime(3, Guided).WithGrain(17)
	if r.Workers() != 3 || r.Scheduler() != Guided || r.Grain() != 17 {
		t.Errorf("accessors: %v", r)
	}
	if r2 := r.WithGrain(0); r2.Grain() != DefaultGrain {
		t.Errorf("WithGrain(0) grain = %d", r2.Grain())
	}
	if NewRuntime(0, Dynamic).Workers() <= 0 {
		t.Error("NewRuntime(0) workers not positive")
	}
}

// StreamGrain cuts a loop into streamChunks chunks per worker, and never
// below the runtime's grain, so a short loop still runs inline.
func TestStreamGrain(t *testing.T) {
	r := NewRuntime(2, Dynamic)
	for _, c := range []struct{ n, want int }{
		{0, DefaultGrain},
		{100, DefaultGrain},
		{200_000, 25_000},
		{200_001, 25_001},
	} {
		if got := r.StreamGrain(c.n); got != c.want {
			t.Errorf("2 workers, n=%d: StreamGrain %d, want %d", c.n, got, c.want)
		}
	}
	if got := NewRuntime(5, Dynamic).WithGrain(10_000).StreamGrain(100_000); got != 10_000 {
		t.Errorf("grain 10000: StreamGrain %d, want the runtime's grain", got)
	}
}

func TestStringers(t *testing.T) {
	cases := map[string]string{
		Seq.String():      "seq",
		Par.String():      "par",
		ParUnseq.String(): "par_unseq",
		Static.String():   "static",
		Dynamic.String():  "dynamic",
		Guided.String():   "guided",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if Policy(99).String() == "" || Scheduler(99).String() == "" {
		t.Error("unknown values should still print")
	}
}

// Property: for random n and worker counts, For covers [0,n) exactly.
func TestPropForCoverage(t *testing.T) {
	f := func(nRaw uint16, wRaw uint8, sRaw uint8) bool {
		n := int(nRaw % 5000)
		w := int(wRaw%16) + 1
		s := Scheduler(sRaw % 3)
		r := NewRuntime(w, s)
		var sum atomic.Int64
		r.For(Par, n, func(i int) { sum.Add(int64(i) + 1) })
		return sum.Load() == int64(n)*int64(n+1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
