package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox is a few cores of a shared host, and its speed moves in phases
// that outlast a run: the same binary and seed step 100 000 bodies in 350 ms
// for some minutes and in 450 ms for the next, with no steal time to show for
// it. No statistic taken inside one run averages that out. What does follow
// the phases is a fixed piece of work timed beside the workload: over 200 s
// of bvh-galaxy-100k steps interleaved with the probe below, 12-second block
// medians of the step time spread by 20 % (interquartile range ÷ median),
// correlated 0.9 with the probe's, and their ratio spread by 4 %.
//
// So an untraced run of an engine workload times the probe about once every
// two seconds — the measured window is cut into refSegments parts with a
// probe at each cut — and reports its timings as they would read on a host
// that runs the probe in refNominal: measured × refNominal ÷ (median probe
// time). The measured value is printed beside each. The serve workloads'
// small sessions live in a private cache and hardly follow the probe; they
// are reported as measured. The probe lives here, shares no code with the
// program, and must not change once results are being compared.
const (
	// refBodies² softened pair interactions per worker: arithmetic
	// throughput (multiply-add, square root, divide), as the force kernels
	// use it.
	refBodies = 2896
	// refHops dependent loads per worker through one random cycle over
	// refChaseBytes: cache and memory latency, as the tree walks use it. The
	// array is far larger than a private cache and lives outside the Go
	// heap, so it neither feeds nor delays the garbage collector.
	refHops       = 400_000
	refChaseBytes = 32 << 20
	// refNominal is the probe's time on the two-core sandbox in a quiet
	// phase; it only fixes the scale of the reported figures.
	refNominal = 68 * time.Millisecond
	// refSegments is the number of parts of a measured window, and
	// refMinGap the shortest time between two probes: a probe costs about
	// refNominal on every core and flushes the caches, so set-ups that take
	// milliseconds do not each get one.
	refSegments = 6
	refMinGap   = time.Second
)

// reference is the probe's fixed input and the times it has taken in this
// run.
type reference struct {
	x, y, z []float64
	next    []int32
	mapped  []byte
	secs    []float64
	last    time.Time
	sink    float64
}

// newReference builds the probe's input. smoke shrinks it 50×, like every
// other input of a smoke run.
func newReference(smoke bool) (*reference, error) {
	bodies, bytes := refBodies, refChaseBytes
	if smoke {
		bodies, bytes = bodies/8, bytes/50 // bodies² ≈ 1/50
	}
	r := &reference{x: make([]float64, bodies), y: make([]float64, bodies), z: make([]float64, bodies)}
	state := uint64(0x9e3779b97f4a7c15)
	rnd := func() uint64 { // xorshift64: fixed input, whatever the run's seed
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := range r.x {
		r.x[i], r.y[i], r.z[i] = float64(rnd()>>11)/(1<<53), float64(rnd()>>11)/(1<<53), float64(rnd()>>11)/(1<<53)
	}
	var err error
	r.mapped, err = syscall.Mmap(-1, 0, bytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the reference probe's array: %w", err)
	}
	r.next = unsafe.Slice((*int32)(unsafe.Pointer(&r.mapped[0])), bytes/4)
	// Sattolo's shuffle: one cycle through every slot.
	for i := range r.next {
		r.next[i] = int32(i)
	}
	for i := len(r.next) - 1; i > 0; i-- {
		j := int(rnd() % uint64(i))
		r.next[i], r.next[j] = r.next[j], r.next[i]
	}
	return r, nil
}

func (r *reference) close() {
	if r.mapped != nil {
		syscall.Munmap(r.mapped)
		r.mapped, r.next = nil, nil
	}
}

// residentMB is what the probe's array adds to the process's peak resident
// set; mem_peak_mb is reported without it.
func (r *reference) residentMB() float64 { return float64(len(r.mapped)) / (1 << 20) }

// probe times the fixed work once, on every core at the same time as the
// workloads use them, unless the last probe was under refMinGap ago. A run
// without a probe (nil) skips it.
func (r *reference) probe() {
	if r == nil || !r.last.IsZero() && time.Since(r.last) < refMinGap {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	sums := make([]float64, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sums[w] = r.work(w, workers)
		}(w)
	}
	wg.Wait()
	r.last = time.Now()
	r.secs = append(r.secs, r.last.Sub(start).Seconds())
	for _, s := range sums {
		r.sink += s
	}
}

// work is one worker's share of a probe: always the same operations.
func (r *reference) work(w, workers int) float64 {
	var sum float64
	x, y, z := r.x, r.y, r.z
	for i := range x {
		var ax float64
		for j := range x {
			dx, dy, dz := x[j]-x[i], y[j]-y[i], z[j]-z[i]
			r2 := dx*dx + dy*dy + dz*dz + 1e-6
			ax += dx / (r2 * math.Sqrt(r2))
		}
		sum += ax
	}
	p := int32(len(r.next) / workers * w)
	hops := refHops * len(r.next) / (refChaseBytes / 4) // shrinks with a smoke run's array
	for i := 0; i < hops; i++ {
		p = r.next[p]
	}
	return sum + float64(p)
}

// slowdown is how much slower than refNominal this host has run the probe so
// far in this run (median): measured times are divided by it, rates
// multiplied. It is 1 for a run without a probe.
func (r *reference) slowdown() float64 {
	if r == nil || len(r.secs) == 0 {
		return 1
	}
	return median(r.secs) / refNominal.Seconds()
}

// window measures lim in refSegments consecutive parts — one when lim counts
// operations — with a probe before the first and after each.
func (r *reference) window(lim limit, part func(limit) opLog) opLog {
	parts := refSegments
	if lim.ops > 0 {
		parts = 1
	}
	var all opLog
	r.probe()
	for i := 0; i < parts; i++ {
		l := part(limit{seconds: lim.seconds / float64(parts), ops: lim.ops})
		all.lat = append(all.lat, l.lat...)
		all.failed += l.failed
		all.wall += l.wall
		r.probe()
	}
	return all
}
