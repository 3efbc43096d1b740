package par_test

import (
	"fmt"

	"nbody/internal/par"
)

// A Parallel For over an index space, the analog of C++
// for_each(par_unseq, …) over an iota view (Algorithm 1 of the paper).
func ExampleRuntime_For() {
	r := par.NewRuntime(4, par.Dynamic)
	x := make([]float64, 8)
	y := []float64{1, 2, 3, 4, 5, 6, 7, 8}

	r.For(par.ParUnseq, len(x), func(i int) {
		x[i] = x[i] + y[i]
	})

	fmt.Println(x)
	// Output:
	// [1 2 3 4 5 6 7 8]
}

// A transform-reduce, the analog of C++ transform_reduce (the paper's
// bounding-box step is exactly this shape).
func ExampleReduceRanges() {
	r := par.NewRuntime(4, par.Static)
	squares := par.ReduceRanges(r, par.Par, 10, 0,
		func(a, b int) int { return a + b },
		func(acc, lo, hi int) int {
			for i := lo; i < hi; i++ {
				acc += i * i
			}
			return acc
		})
	fmt.Println(squares)
	// Output:
	// 285
}

// A sort of (key, index) pairs, the analog of the paper's HILBERTSORT,
// which sorts (hilbert, body) pairs: both slices come out permuted
// together, and idx is the permutation to apply to the bodies.
func ExampleSortByKeys() {
	r := par.NewRuntime(2, par.Dynamic)
	keys := []uint64{30, 10, 20}
	idx := []int32{0, 1, 2}
	par.SortByKeys(r, par.Par, keys, idx)
	fmt.Println(keys, idx)
	// Output:
	// [10 20 30] [1 2 0]
}
