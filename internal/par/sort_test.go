package par

import (
	"cmp"
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

// sortedPairs is the pair contract's oracle: the (keys[i], idx[i]) pairs
// stably sorted by key with the standard library.
func sortedPairs(keys []uint64, idx []int32) ([]uint64, []int32) {
	type pair struct {
		key uint64
		idx int32
	}
	pairs := make([]pair, len(keys))
	for i := range pairs {
		pairs[i] = pair{keys[i], idx[i]}
	}
	slices.SortStableFunc(pairs, func(a, b pair) int { return cmp.Compare(a.key, b.key) })
	k, v := make([]uint64, len(pairs)), make([]int32, len(pairs))
	for i, p := range pairs {
		k[i], v[i] = p.key, p.idx
	}
	return k, v
}

// checkSortByKeys sorts the pairs with SortByKeys and requires the
// oracle's keys and indices, in the oracle's order.
func checkSortByKeys(t *testing.T, r *Runtime, p Policy, keys []uint64, idx []int32) {
	t.Helper()
	wantK, wantI := sortedPairs(keys, idx)
	SortByKeys(r, p, keys, idx)
	if !slices.Equal(keys, wantK) || !slices.Equal(idx, wantI) {
		for i := range keys {
			if keys[i] != wantK[i] || idx[i] != wantI[i] {
				t.Fatalf("%v %v n=%d: pair %d is (%d, %d), want (%d, %d)", r, p, len(keys), i, keys[i], idx[i], wantK[i], wantI[i])
			}
		}
	}
}

func TestSortByKeysBasic(t *testing.T) {
	for _, r := range testRuntimes {
		for _, n := range []int{0, 1, 2, 100, 5000, 100000} {
			checkSortByKeys(t, r, Par, randKeys(n, int64(n)+1, 64), identityPerm(n))
		}
	}
}

func TestSortByKeysSmallKeyRange(t *testing.T) {
	// Few significant bits → fewer radix passes, an odd number of them
	// included; exercise that path.
	r := NewRuntime(4, Dynamic)
	for _, bits := range []int{1, 8, 9, 11, 12, 16, 17, 22, 33, 63} {
		checkSortByKeys(t, r, Par, randKeys(20000, int64(bits), bits), identityPerm(20000))
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
		checkSortByKeys(t, NewRuntime(4, Dynamic), Par, keys, idx)
		for i := 1; i < n; i++ {
			if keys[i-1] == keys[i] && idx[i-1] > idx[i] {
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
		if int(v) != i || keys[i] != 0 {
			t.Fatalf("equal keys should keep identity order, pair %d is (%d, %d)", i, keys[i], v)
		}
	}
}

func TestSortByKeysAlreadySorted(t *testing.T) {
	n := 30000
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	checkSortByKeys(t, NewRuntime(4, Static), Par, keys, identityPerm(n))
}

func TestSortByKeysReverse(t *testing.T) {
	n := 30000
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(n - i)
	}
	checkSortByKeys(t, NewRuntime(4, Guided), Par, keys, identityPerm(n))
}

func TestSortByKeysSeqPolicy(t *testing.T) {
	checkSortByKeys(t, NewRuntime(8, Dynamic), Seq, randKeys(10000, 3, 64), identityPerm(10000))
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
				wantK, wantI := sortedPairs(keys, idx)
				SortByKeys(r, Par, keys, idx)
				if !slices.Equal(keys, wantK) || !slices.Equal(idx, wantI) {
					t.Errorf("sorter %d round %d: pairs differ from a stable sort", g, round)
					return
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

// Property: SortByKeys permutes the pairs exactly as a stable comparison
// sort of (key, idx) does, on both sides of the sequential cut-off, for
// one-, 21- and 63-bit keys (one digit, an odd number of radix passes, the
// full curve key) and any worker count. idx holds arbitrary values, so
// only the pairing carries it.
func TestPropSortByKeys(t *testing.T) {
	check := func(n, bits, workers int, seed int64) bool {
		keys := randKeys(n, seed, bits)
		idx := make([]int32, n)
		for i, k := range randKeys(n, seed+1, 31) {
			idx[i] = int32(k)
		}
		wantK, wantI := sortedPairs(keys, idx)
		SortByKeys(NewRuntime(workers, Dynamic), Par, keys, idx)
		return slices.Equal(keys, wantK) && slices.Equal(idx, wantI)
	}
	for _, workers := range []int{1, 2, 5} {
		for _, bits := range []int{1, 21, 63} {
			for _, n := range []int{0, 1, 2, 3, 100, 4095, 4096, 4097, 10007} {
				if !check(n, bits, workers, int64(n*bits+workers)) {
					t.Errorf("n=%d, %d-bit keys, %d workers: pairs differ from a stable sort", n, bits, workers)
				}
			}
		}
	}
	f := func(seed int64, nRaw uint16, wRaw, bRaw uint8) bool {
		return check(int(nRaw%12288), int(bRaw%64)+1, int(wRaw%8)+1, seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// benchmarkSortByKeys sorts n random 63-bit keys (the width of a 3×21-bit
// curve key) on all workers; resetting the pairs is not timed.
func benchmarkSortByKeys(b *testing.B, n int) {
	keys0 := randKeys(n, 1, 63)
	keys, idx := make([]uint64, n), make([]int32, n)
	r := NewRuntime(0, Dynamic)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(keys, keys0)
		for j := range idx {
			idx[j] = int32(j)
		}
		b.StartTimer()
		SortByKeys(r, Par, keys, idx)
	}
}

// BenchmarkSortByKeys2e5 is the sort of the benchmark's embedding workload
// (200 k bodies).
func BenchmarkSortByKeys2e5(b *testing.B) { benchmarkSortByKeys(b, 200_000) }

func BenchmarkSortByKeys1e6(b *testing.B) { benchmarkSortByKeys(b, 1<<20) }

func BenchmarkFor1e6(b *testing.B) {
	r := NewRuntime(0, Dynamic)
	xs := make([]float64, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.For(ParUnseq, len(xs), func(j int) { xs[j] = xs[j]*0.5 + 1 })
	}
}
