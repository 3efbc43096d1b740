package par

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func randKeys(n int, seed int64, bits int) []uint64 {
	r := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = r.Uint64() >> (64 - bits)
	}
	return keys
}

func identityPerm(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

func checkSortedPerm(t *testing.T, keys []uint64, idx []int32) {
	t.Helper()
	n := len(idx)
	seen := make([]bool, n)
	for i, v := range idx {
		if v < 0 || int(v) >= n || seen[v] {
			t.Fatalf("idx is not a permutation at %d: %v", i, v)
		}
		seen[v] = true
		if i > 0 && keys[idx[i-1]] > keys[v] {
			t.Fatalf("not sorted at %d: %d > %d", i, keys[idx[i-1]], keys[v])
		}
	}
}

func TestSortByKeysBasic(t *testing.T) {
	for _, r := range testRuntimes {
		for _, n := range []int{0, 1, 2, 100, 5000, 100000} {
			keys := randKeys(n, int64(n)+1, 64)
			idx := identityPerm(n)
			SortByKeys(r, Par, keys, idx)
			checkSortedPerm(t, keys, idx)
		}
	}
}

func TestSortByKeysSmallKeyRange(t *testing.T) {
	// Few significant bits → fewer radix passes; exercise that path.
	r := NewRuntime(4, Dynamic)
	for _, bits := range []int{1, 8, 9, 16, 17, 33, 63} {
		keys := randKeys(20000, int64(bits), bits)
		idx := identityPerm(20000)
		SortByKeys(r, Par, keys, idx)
		checkSortedPerm(t, keys, idx)
	}
}

func TestSortByKeysStability(t *testing.T) {
	// Duplicate keys must keep input order (stability), sequential and
	// parallel paths alike.
	for _, n := range []int{1000, 50000} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i % 7)
		}
		idx := identityPerm(n)
		SortByKeys(NewRuntime(4, Dynamic), Par, keys, idx)
		checkSortedPerm(t, keys, idx)
		for i := 1; i < n; i++ {
			if keys[idx[i-1]] == keys[idx[i]] && idx[i-1] > idx[i] {
				t.Fatalf("n=%d: stability violated at %d: %d before %d", n, i, idx[i-1], idx[i])
			}
		}
	}
}

func TestSortByKeysAllEqual(t *testing.T) {
	n := 10000
	keys := make([]uint64, n)
	idx := identityPerm(n)
	SortByKeys(NewRuntime(8, Dynamic), Par, keys, idx)
	for i, v := range idx {
		if int(v) != i {
			t.Fatalf("equal keys should keep identity order, idx[%d]=%d", i, v)
		}
	}
}

func TestSortByKeysAlreadySorted(t *testing.T) {
	n := 30000
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	idx := identityPerm(n)
	SortByKeys(NewRuntime(4, Static), Par, keys, idx)
	checkSortedPerm(t, keys, idx)
}

func TestSortByKeysReverse(t *testing.T) {
	n := 30000
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(n - i)
	}
	idx := identityPerm(n)
	SortByKeys(NewRuntime(4, Guided), Par, keys, idx)
	checkSortedPerm(t, keys, idx)
}

func TestSortByKeysSeqPolicy(t *testing.T) {
	keys := randKeys(10000, 3, 64)
	idx := identityPerm(10000)
	SortByKeys(NewRuntime(8, Dynamic), Seq, keys, idx)
	checkSortedPerm(t, keys, idx)
}

// Sessions share one Runtime and sort at the same time; the recycled
// scratch must stay private to each sort, whatever its size. Run under
// -race.
func TestSortByKeysConcurrentSorts(t *testing.T) {
	r := NewRuntime(3, Dynamic)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				n := 5000 + 3000*((g+round)%4)
				keys := randKeys(n, int64(100*g+round), 63)
				idx := identityPerm(n)
				SortByKeys(r, Par, keys, idx)
				for i := 1; i < n; i++ {
					if keys[idx[i-1]] > keys[idx[i]] {
						t.Errorf("sorter %d round %d: not sorted at %d", g, round, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// A scratch grown by one large sort is let go once it has only served far
// smaller ones for a while, and kept as long as large sorts keep coming.
func TestSortScratchReleasedWhenOversized(t *testing.T) {
	pooled := func(s *sortScratch) bool {
		select {
		case got := <-sortScratchFree:
			return got == s
		default:
			return false
		}
	}
	for len(sortScratchFree) > 0 {
		<-sortScratchFree
	}
	s := &sortScratch{idx: make([]int32, 1<<16)}
	for i := 1; i < sortScratchMaxOversized; i++ {
		putSortScratch(s, 1<<10)
		if !pooled(s) {
			t.Fatalf("scratch dropped after %d small sorts, want it kept until %d", i, sortScratchMaxOversized)
		}
	}
	putSortScratch(s, 1<<16) // a large sort resets the count
	if !pooled(s) {
		t.Fatal("scratch dropped by a sort that filled it")
	}
	for i := 1; i < sortScratchMaxOversized; i++ {
		putSortScratch(s, 1<<10)
		if !pooled(s) {
			t.Fatalf("scratch dropped %d small sorts after a large one", i)
		}
	}
	putSortScratch(s, 1<<10)
	if pooled(s) {
		t.Fatalf("scratch of %d kept after %d sorts of %d", 1<<16, sortScratchMaxOversized, 1<<10)
	}
}

func TestScanExclusive(t *testing.T) {
	for _, r := range testRuntimes {
		for _, p := range allPolicies {
			for _, n := range []int{0, 1, 2, 100, 10000} {
				xs := make([]int64, n)
				want := make([]int64, n)
				var acc int64
				for i := range xs {
					xs[i] = int64(i%13) - 3
				}
				for i := range xs {
					want[i] = acc
					acc += xs[i]
				}
				total := ExclusiveScan(r, p, xs)
				if total != acc {
					t.Fatalf("%v %v n=%d: total = %d, want %d", r, p, n, total, acc)
				}
				if !slices.Equal(xs, want) {
					t.Fatalf("%v %v n=%d: scan mismatch", r, p, n)
				}
			}
		}
	}
}

// Property: SortByKeys output is always a sorted permutation.
func TestPropSortByKeys(t *testing.T) {
	f := func(seed int64, nRaw uint16, wRaw uint8) bool {
		n := int(nRaw % 8192)
		w := int(wRaw%8) + 1
		keys := randKeys(n, seed, 64)
		idx := identityPerm(n)
		SortByKeys(NewRuntime(w, Dynamic), Par, keys, idx)
		seen := make([]bool, n)
		for i, v := range idx {
			if v < 0 || int(v) >= n || seen[v] {
				return false
			}
			seen[v] = true
			if i > 0 && keys[idx[i-1]] > keys[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSortByKeys1e6(b *testing.B) {
	keys := randKeys(1<<20, 1, 64)
	idx := identityPerm(1 << 20)
	r := NewRuntime(0, Dynamic)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range idx {
			idx[j] = int32(j)
		}
		SortByKeys(r, Par, keys, idx)
	}
}

func BenchmarkFor1e6(b *testing.B) {
	r := NewRuntime(0, Dynamic)
	xs := make([]float64, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.For(ParUnseq, len(xs), func(j int) { xs[j] = xs[j]*0.5 + 1 })
	}
}
