// Package atomicx supplies the one atomic building block the paper's
// algorithms need beyond what sync/atomic provides directly: atomic
// floating-point accumulation (the C++ code uses
// std::atomic_ref<double>::fetch_add with relaxed ordering).
//
// Go's sync/atomic has no float64 operations, so AddFloat64 implements it
// with a compare-and-swap loop over the value's bit pattern.
// Go atomics are sequentially consistent, which is strictly stronger than
// the relaxed/acquire/release orderings the paper uses; correctness is
// therefore preserved (at some cost in throughput, discussed in
// EXPERIMENTS.md).
package atomicx

import (
	"math"
	"sync/atomic"
	"unsafe"
)

// AddFloat64 atomically adds delta to *addr and returns the new value.
//
// addr must be 8-byte aligned, which holds for any float64 stored in a
// slice, array, or struct field allocated by Go.
func AddFloat64(addr *float64, delta float64) float64 {
	bits := (*atomic.Uint64)(unsafe.Pointer(addr))
	for {
		old := bits.Load()
		newVal := math.Float64frombits(old) + delta
		if bits.CompareAndSwap(old, math.Float64bits(newVal)) {
			return newVal
		}
	}
}
