package atomicx

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestAddFloat64Sequential(t *testing.T) {
	var x float64
	if got := AddFloat64(&x, 1.5); got != 1.5 {
		t.Errorf("AddFloat64 returned %v", got)
	}
	if got := AddFloat64(&x, -0.5); got != 1.0 {
		t.Errorf("AddFloat64 returned %v", got)
	}
	if x != 1.0 {
		t.Errorf("x = %v", x)
	}
}

func TestAddFloat64Concurrent(t *testing.T) {
	var x float64
	const workers = 16
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				AddFloat64(&x, 1)
			}
		}()
	}
	wg.Wait()
	if want := float64(workers * perWorker); x != want {
		t.Errorf("sum = %v, want %v (lost updates)", x, want)
	}
}

func TestAddFloat64SliceElements(t *testing.T) {
	// The concurrent multipole reduction adds into slice elements; verify
	// updates to adjacent elements do not interfere.
	xs := make([]float64, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				AddFloat64(&xs[w], 2)
			}
		}(w)
	}
	wg.Wait()
	for i, v := range xs {
		if v != 10000 {
			t.Errorf("xs[%d] = %v, want 10000", i, v)
		}
	}
}

// Property: a sequence of atomic adds equals the plain sum.
func TestPropAddMatchesSum(t *testing.T) {
	f := func(vals []float64) bool {
		var a, b float64
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			v = math.Mod(v, 1e6)
			AddFloat64(&a, v)
			b += v
		}
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkAddFloat64Uncontended(b *testing.B) {
	var x float64
	for i := 0; i < b.N; i++ {
		AddFloat64(&x, 1)
	}
}

func BenchmarkAddFloat64Contended(b *testing.B) {
	var x float64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			AddFloat64(&x, 1)
		}
	})
}
