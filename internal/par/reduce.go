package par

import "sync"

// ReduceRanges is the moral equivalent of C++ transform_reduce over the
// index space [0, n). It folds contiguous index ranges instead of single
// indices, letting the per-range function keep its accumulator in registers:
// fold must fold the half-open range [lo, hi) into acc and return it.
//
// combine must be associative and identity must be its neutral element; the
// grouping of combine applications is unspecified (each worker folds a
// private partial over one contiguous block, and partials are combined in
// block order on the caller). For floating-point reductions this means
// results can differ from a sequential fold by rounding, exactly as with the
// C++ algorithm.
//
// ReduceRanges is a free function rather than a method because Go methods
// cannot introduce type parameters.
func ReduceRanges[T any](r *Runtime, p Policy, n int, identity T, combine func(a, b T) T, fold func(acc T, lo, hi int) T) T {
	if n <= 0 {
		return identity
	}
	if p == Seq || r.workers == 1 || n <= r.grain {
		return fold(identity, 0, n)
	}
	w := r.workers
	if w > n {
		w = n
	}
	partials := make([]T, w)
	var pg panicGuard
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(k int) {
			defer wg.Done()
			defer pg.capture()
			lo := k * n / w
			hi := (k + 1) * n / w
			partials[k] = fold(identity, lo, hi)
		}(k)
	}
	wg.Wait()
	pg.repanic()

	acc := identity
	for _, pv := range partials {
		acc = combine(acc, pv)
	}
	return acc
}
