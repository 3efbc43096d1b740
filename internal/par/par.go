// Package par is the "standard parallelism" substrate of this repository:
// a Go analog of the ISO C++ parallel algorithms layer the paper builds on.
//
// The paper expresses every phase of Barnes-Hut with three parallel
// algorithms — Parallel For (for_each), Parallel Reduce (transform_reduce)
// and Parallel Sort (sort) — parameterized by an execution policy that
// states the forward-progress requirements of the loop body:
//
//   - par: parallel forward progress. A blocked iteration is guaranteed to
//     be rescheduled, so loop bodies may take locks and enter critical
//     sections (the Concurrent Octree build needs this).
//   - par_unseq: weakly parallel forward progress. Iterations must be
//     independent and lock-free; the implementation may interleave them
//     arbitrarily (GPU lockstep). The Hilbert BVH only needs this.
//
// In Go every goroutine gets parallel forward progress from the runtime
// scheduler, so both policies are *correct* for any body; the distinction is
// kept because (a) it documents the algorithmic requirement exactly as the
// paper states it, and (b) the two policies schedule differently: Par uses
// fine-grained dynamic self-scheduling (irregular bodies; mirrors how par
// loops behave on ITS GPUs), while ParUnseq defaults to coarse chunks that
// the compiler can keep in straight-line code (the moral equivalent of
// vectorized lockstep execution).
//
// A Runtime bundles a worker count and a Scheduler (static / dynamic /
// guided). Different Runtimes stand in for the paper's different toolchains
// (NVC++, AdaptiveCpp, clang) in the Figure 8/9 reproductions: same
// algorithms, different scheduling implementations.
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Policy is an execution policy expressing the forward-progress requirements
// of a parallel loop body, mirroring C++ std::execution policies.
type Policy uint8

const (
	// Seq executes iterations sequentially on the calling goroutine.
	Seq Policy = iota
	// Par executes iterations in parallel with parallel forward progress:
	// bodies may block on locks held by other iterations.
	Par
	// ParUnseq executes iterations in parallel assuming weakly parallel
	// forward progress: bodies must be independent and must not block on
	// each other. Atomic read-modify-write synchronization between
	// iterations is, per the C++ rules the paper cites, not allowed here.
	ParUnseq
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Seq:
		return "seq"
	case Par:
		return "par"
	case ParUnseq:
		return "par_unseq"
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// Scheduler selects how a parallel loop's iteration space is divided among
// workers. It is the reproduction's stand-in for the paper's toolchain axis:
// the same source algorithm scheduled by different runtime implementations.
type Scheduler uint8

const (
	// Dynamic self-schedules fixed-size chunks from a shared atomic
	// counter: best load balance for irregular bodies (tree builds,
	// traversals with data-dependent depth).
	Dynamic Scheduler = iota
	// Static pre-assigns one contiguous block per worker: zero scheduling
	// overhead, best for uniform bodies, worst for skewed ones.
	Static
	// Guided self-schedules chunks whose size decays with the remaining
	// work (OpenMP "guided"): a compromise between the two.
	Guided
)

// String implements fmt.Stringer.
func (s Scheduler) String() string {
	switch s {
	case Dynamic:
		return "dynamic"
	case Static:
		return "static"
	case Guided:
		return "guided"
	}
	return fmt.Sprintf("Scheduler(%d)", uint8(s))
}

// Runtime is a parallel execution environment: a worker count plus a
// scheduling strategy. The zero value is not valid; use NewRuntime.
// Runtimes are stateless between calls and safe for concurrent use.
type Runtime struct {
	workers int
	sched   Scheduler
	grain   int // minimum chunk size for dynamic/guided scheduling
}

// DefaultGrain is the default minimum number of iterations handed to a
// worker at a time by the dynamic and guided schedulers. It amortizes the
// shared-counter update across enough work to make self-scheduling cheap.
const DefaultGrain = 64

// streamChunks is how many chunks per worker StreamGrain cuts a loop into:
// enough that dynamic scheduling still evens out a worker that starts late,
// few enough that the workers claim from the shared cursor a handful of
// times per loop instead of once per DefaultGrain iterations.
const streamChunks = 4

// NewRuntime returns a Runtime with the given number of workers and
// scheduler. workers <= 0 selects runtime.GOMAXPROCS(0).
func NewRuntime(workers int, sched Scheduler) *Runtime {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runtime{workers: workers, sched: sched, grain: DefaultGrain}
}

// WithGrain returns a copy of r whose dynamic/guided schedulers hand out at
// least grain iterations at a time. grain <= 0 resets to DefaultGrain.
func (r *Runtime) WithGrain(grain int) *Runtime {
	if grain <= 0 {
		grain = DefaultGrain
	}
	c := *r
	c.grain = grain
	return &c
}

// Workers returns the number of workers parallel loops will use.
func (r *Runtime) Workers() int { return r.workers }

// Scheduler returns the runtime's scheduling strategy.
func (r *Runtime) Scheduler() Scheduler { return r.sched }

// Grain returns the runtime's minimum dynamic chunk size.
func (r *Runtime) Grain() int { return r.grain }

// StreamGrain returns the grain for a loop of n iterations that all cost
// the same, such as a gather: streamChunks chunks per worker, never less
// than the runtime's grain. Claiming DefaultGrain iterations at a time
// there only bounces the cursor's cache line between the cores.
func (r *Runtime) StreamGrain(n int) int {
	chunks := r.workers * streamChunks
	return max(r.grain, (n+chunks-1)/chunks)
}

// String implements fmt.Stringer.
func (r *Runtime) String() string {
	return fmt.Sprintf("par.Runtime{workers: %d, sched: %s, grain: %d}", r.workers, r.sched, r.grain)
}

// defaultRuntime is what a caller that configures no Runtime gets: one
// worker per GOMAXPROCS, dynamically scheduled.
var defaultRuntime = NewRuntime(0, Dynamic)

// Default returns the package-level default runtime.
func Default() *Runtime { return defaultRuntime }

// For applies f to every index in [0, n) under policy p.
//
// With Seq the loop runs inline. With Par or ParUnseq it runs on r.Workers()
// goroutines; the iteration order is unspecified. A panic in f is recovered
// on the worker and re-panicked on the calling goroutine after all workers
// have stopped.
func (r *Runtime) For(p Policy, n int, f func(i int)) {
	r.ForGrain(p, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}

// ForGrain applies f to contiguous index ranges that exactly cover [0, n).
// Each call receives lo < hi. grain <= 0 selects the runtime default. The
// chunked form lets hot loops hoist per-chunk work (exactly what the C++
// implementations do internally for par_unseq vector loops).
func (r *Runtime) ForGrain(p Policy, n, grain int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = r.grain
	}
	// Small trip counts are not worth forking for.
	if p == Seq || r.workers == 1 || n <= grain {
		f(0, n)
		return
	}
	switch r.sched {
	case Static:
		r.forStatic(n, f)
	case Guided:
		r.forGuided(n, grain, f)
	default:
		r.forDynamic(n, grain, f)
	}
}

// forStatic pre-assigns one contiguous block per worker.
func (r *Runtime) forStatic(n int, f func(lo, hi int)) {
	w := r.workers
	if w > n {
		w = n
	}
	var pg panicGuard
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		lo := k * n / w
		hi := (k + 1) * n / w
		go func(lo, hi int) {
			defer wg.Done()
			defer pg.capture()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	pg.repanic()
}

// forDynamic hands out fixed-size chunks from a shared atomic cursor.
func (r *Runtime) forDynamic(n, grain int, f func(lo, hi int)) {
	w := r.workers
	if maxW := (n + grain - 1) / grain; w > maxW {
		w = maxW
	}
	var cursor atomic.Int64
	var pg panicGuard
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			defer pg.capture()
			for {
				lo := int(cursor.Add(int64(grain))) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				f(lo, hi)
			}
		}()
	}
	wg.Wait()
	pg.repanic()
}

// forGuided hands out chunks proportional to the remaining work, decaying to
// the grain size, in the style of OpenMP guided scheduling.
func (r *Runtime) forGuided(n, grain int, f func(lo, hi int)) {
	w := r.workers
	var cursor atomic.Int64
	var pg panicGuard
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			defer pg.capture()
			for {
				// Claim a chunk sized from a snapshot of the
				// remaining work. The snapshot may be stale; the
				// CAS-free Add still partitions [0,n) exactly, the
				// chunk size is merely a heuristic.
				pos := cursor.Load()
				remaining := int64(n) - pos
				if remaining <= 0 {
					return
				}
				chunk := remaining / int64(2*w)
				if chunk < int64(grain) {
					chunk = int64(grain)
				}
				lo := cursor.Add(chunk) - chunk
				if lo >= int64(n) {
					return
				}
				hi := lo + chunk
				if hi > int64(n) {
					hi = int64(n)
				}
				f(int(lo), int(hi))
			}
		}()
	}
	wg.Wait()
	pg.repanic()
}

// panicGuard captures the first panic raised on any worker so it can be
// re-raised on the caller once the loop has fully stopped, matching the
// behaviour of a panic in an inline loop closely enough for tests.
type panicGuard struct {
	once sync.Once
	val  any
	set  atomic.Bool
}

// capture must be deferred inside each worker.
func (g *panicGuard) capture() {
	if v := recover(); v != nil {
		g.once.Do(func() {
			g.val = v
			g.set.Store(true)
		})
	}
}

// repanic re-raises the captured panic, if any, on the caller.
func (g *panicGuard) repanic() {
	if g.set.Load() {
		panic(g.val)
	}
}
