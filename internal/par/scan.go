package par

import "sync"

// Integer is the constraint for the scan primitives.
type Integer interface {
	~int | ~int32 | ~int64 | ~uint | ~uint32 | ~uint64
}

// ExclusiveScan replaces xs with its exclusive prefix sum (xs'[i] = Σ_{j<i}
// xs[j]) and returns the total Σ xs[j]. It runs in two parallel passes:
// per-block sums, a sequential scan over the (few) block sums, then a
// per-block local scan with the block offset applied. The key-sorted octree
// build compacts each level's frontier with it.
func ExclusiveScan[T Integer](r *Runtime, p Policy, xs []T) T {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if p == Seq || r.workers == 1 || n <= 2*r.grain {
		var acc T
		for i := range xs {
			v := xs[i]
			xs[i] = acc
			acc += v
		}
		return acc
	}

	w := r.workers
	if w > n {
		w = n
	}
	blockSums := make([]T, w)

	// Pass 1: independent block sums.
	var pg panicGuard
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(k int) {
			defer wg.Done()
			defer pg.capture()
			lo, hi := k*n/w, (k+1)*n/w
			var acc T
			for i := lo; i < hi; i++ {
				acc += xs[i]
			}
			blockSums[k] = acc
		}(k)
	}
	wg.Wait()
	pg.repanic()

	// Sequential scan over the w block sums.
	var total T
	for k := range blockSums {
		v := blockSums[k]
		blockSums[k] = total
		total += v
	}

	// Pass 2: local exclusive scans offset by the block prefix.
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(k int) {
			defer wg.Done()
			defer pg.capture()
			lo, hi := k*n/w, (k+1)*n/w
			acc := blockSums[k]
			for i := lo; i < hi; i++ {
				v := xs[i]
				xs[i] = acc
				acc += v
			}
		}(k)
	}
	wg.Wait()
	pg.repanic()
	return total
}
