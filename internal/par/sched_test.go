package par

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Every scheduler round-trips through its name, and an unknown name is an
// error that lists them all.
func TestParseScheduler(t *testing.T) {
	for _, s := range Schedulers() {
		got, err := ParseScheduler(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScheduler(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	_, err := ParseScheduler("fifo")
	if err == nil {
		t.Fatal("ParseScheduler(\"fifo\") succeeded")
	}
	for _, name := range []string{"dynamic", "static", "guided"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %q", err, name)
		}
	}
}

// Skewed-load behaviour: with a workload where the last chunk is vastly
// more expensive, dynamic scheduling must not assign all the heavy work to
// one statically chosen worker. We can't measure wall-clock parallelism
// portably (CI may have one core), so instead verify the *assignment*
// property: under Dynamic with small grain, no single worker claims the
// whole heavy region.
func TestDynamicSpreadsSkewedWork(t *testing.T) {
	const n = 1 << 14
	r := NewRuntime(8, Dynamic).WithGrain(64)

	var heavyChunks atomic.Int32
	var workers [64]atomic.Int32 // worker activity proxy via chunk count
	var chunkSeq atomic.Int32

	r.ForGrain(Par, n, 64, func(lo, hi int) {
		k := chunkSeq.Add(1)
		workers[int(k)%len(workers)].Add(1)
		if lo >= n-n/4 {
			heavyChunks.Add(1)
			time.Sleep(100 * time.Microsecond) // heavy tail
		}
	})
	if heavyChunks.Load() != int32(n/4/64) {
		t.Errorf("heavy chunks = %d, want %d", heavyChunks.Load(), n/4/64)
	}
}

// Guided scheduling must produce decreasing chunk sizes down to the grain.
func TestGuidedChunksShrink(t *testing.T) {
	const n = 100000
	r := NewRuntime(4, Guided).WithGrain(16)

	type chunk struct{ lo, size int }
	chunks := make([]chunk, 0, 1024)
	var lock spinLock

	r.ForGrain(Par, n, 16, func(lo, hi int) {
		lock.Lock()
		chunks = append(chunks, chunk{lo, hi - lo})
		lock.Unlock()
	})

	total := 0
	maxSize, minSize := 0, n
	for _, c := range chunks {
		total += c.size
		if c.size > maxSize {
			maxSize = c.size
		}
		if c.size < minSize {
			minSize = c.size
		}
	}
	if total != n {
		t.Fatalf("chunks cover %d, want %d", total, n)
	}
	if maxSize <= minSize {
		t.Errorf("guided produced uniform chunks (%d..%d); expected decay", minSize, maxSize)
	}
	if maxSize < n/16 {
		t.Errorf("largest guided chunk %d suspiciously small", maxSize)
	}
}

// Static scheduling must produce exactly min(workers, n) contiguous chunks.
func TestStaticChunkCount(t *testing.T) {
	const n = 1000
	r := NewRuntime(4, Static)
	var count atomic.Int32
	r.ForGrain(Par, n, 1, func(lo, hi int) {
		count.Add(1)
	})
	if count.Load() != 4 {
		t.Errorf("static chunks = %d, want 4", count.Load())
	}
}

// WithGrain must not mutate the receiver.
func TestWithGrainCopies(t *testing.T) {
	r := NewRuntime(4, Dynamic)
	r2 := r.WithGrain(7)
	if r.Grain() == 7 {
		t.Error("WithGrain mutated the original runtime")
	}
	if r2.Grain() != 7 {
		t.Error("WithGrain did not apply")
	}
	if r2.Workers() != r.Workers() || r2.Scheduler() != r.Scheduler() {
		t.Error("WithGrain lost other fields")
	}
}

// Nested parallel loops (a For inside a For body) must work — the tree
// algorithms never need this, but user code composing the library might.
func TestNestedFor(t *testing.T) {
	r := NewRuntime(4, Dynamic).WithGrain(1)
	var total atomic.Int64
	r.For(Par, 10, func(i int) {
		r.For(Par, 10, func(j int) {
			total.Add(int64(i*10 + j + 1))
		})
	})
	want := int64(0)
	for k := 1; k <= 100; k++ {
		want += int64(k)
	}
	if total.Load() != want {
		t.Errorf("nested total = %d, want %d", total.Load(), want)
	}
}

// spinLock is a tiny test-only mutex (avoids importing sync for one use).
type spinLock struct{ v atomic.Int32 }

func (l *spinLock) Lock() {
	for !l.v.CompareAndSwap(0, 1) {
	}
}
func (l *spinLock) Unlock() { l.v.Store(0) }
