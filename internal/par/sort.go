package par

import (
	"runtime"
	"slices"
	"sync"
)

// SortByKeys stably sorts idx so that keys[idx[0]], keys[idx[1]], … is
// non-decreasing. It is the Parallel Sort of the paper's HILBERTSORT step:
// the C++ code sorts (hilbert, body) pairs; here idx is the permutation that
// is afterwards applied to the body arrays (the same strategy the paper uses
// for the AdaptiveCpp and Clang toolchains, which lack views::zip).
//
// The implementation is a parallel least-significant-digit radix sort over
// 8-bit digits. Only the digits needed to cover the largest key are
// processed. Each pass histograms per worker block, turns the (digit, block)
// grid into scatter offsets with an exclusive scan, and scatters blocks in
// parallel — every pass is stable, so the whole sort is.
func SortByKeys(r *Runtime, p Policy, keys []uint64, idx []int32) {
	n := len(idx)
	if n <= 1 {
		return
	}
	const radixBits = 8
	const buckets = 1 << radixBits

	if p == Seq || r.workers == 1 || n < 4096 {
		// Sequential stable sort is faster than radix bookkeeping for
		// small inputs.
		slices.SortStableFunc(idx, func(a, b int32) int {
			ka, kb := keys[a], keys[b]
			switch {
			case ka < kb:
				return -1
			case ka > kb:
				return 1
			}
			return 0
		})
		return
	}

	// Number of significant digit positions.
	maxKey := ReduceRanges(r, p, n, 0,
		func(a, b uint64) uint64 { return max(a, b) },
		func(acc uint64, lo, hi int) uint64 {
			for i := lo; i < hi; i++ {
				if k := keys[idx[i]]; k > acc {
					acc = k
				}
			}
			return acc
		})
	passes := 1
	for maxKey>>(radixBits*passes) != 0 && passes < 8 {
		passes++
	}

	w := r.workers
	scratch := getSortScratch()
	defer putSortScratch(scratch, n)
	if cap(scratch.idx) < n {
		scratch.idx = make([]int32, n)
	}
	if cap(scratch.hist) < w*buckets {
		scratch.hist = make([]int32, w*buckets)
	}
	src, dst := idx, scratch.idx[:n]
	hist := scratch.hist[:w*buckets] // hist[b*buckets+d]

	for pass := 0; pass < passes; pass++ {
		shift := uint(pass * radixBits)

		// Per-block digit histograms.
		runBlocks(w, n, func(k, lo, hi int) {
			h := hist[k*buckets : (k+1)*buckets]
			for i := range h {
				h[i] = 0
			}
			for i := lo; i < hi; i++ {
				d := (keys[src[i]] >> shift) & (buckets - 1)
				h[d]++
			}
		})

		// Exclusive scan in (digit-major, block-minor) order: the first
		// element with digit d in block b lands at offset
		// Σ_{d'<d} count(d') + Σ_{b'<b} hist[b'][d].
		var total int32
		for d := 0; d < buckets; d++ {
			for b := 0; b < w; b++ {
				i := b*buckets + d
				c := hist[i]
				hist[i] = total
				total += c
			}
		}

		// Stable scatter per block.
		runBlocks(w, n, func(k, lo, hi int) {
			h := hist[k*buckets : (k+1)*buckets]
			for i := lo; i < hi; i++ {
				v := src[i]
				d := (keys[v] >> shift) & (buckets - 1)
				dst[h[d]] = v
				h[d]++
			}
		})

		src, dst = dst, src
	}
	if &src[0] != &idx[0] {
		copy(idx, src)
	}
}

// sortScratch is what one radix sort needs beside its arguments: the
// buffer the passes scatter into and the per-block digit histograms.
// oversized counts the consecutive sorts that needed under a quarter of idx.
type sortScratch struct {
	idx, hist []int32
	oversized int
}

// sortScratchFree recycles scratch across sorts: a tree rebuild sorts every
// step, and 4 bytes a key per step was most of what a step allocated.
// Runtimes are shared between simulations (par.Default), so the scratch
// cannot live on the Runtime; a sort owns what it took until it returns it.
//
// A channel, not a sync.Pool: a pool keeps what it is given per P, and a
// sort returns on whichever P finished its last block, so a lone simulation
// would keep missing (and allocating 4 bytes a key again) until every P
// held a copy. The buffer bounds how many stay allocated: one scratch per
// core, since more sorts than cores gain nothing from running at once; a
// sort that finds the channel empty allocates, one that finds it full drops
// its scratch to the collector. Nothing bounds how large one grows — it is
// as big as the largest sort it served — so putSortScratch lets go of a
// scratch that has been far too big sortScratchMaxOversized times running:
// a long-lived server does not keep one large session's buffers for life,
// and sessions of mixed sizes taking turns do not reallocate every step.
var sortScratchFree = make(chan *sortScratch, runtime.GOMAXPROCS(0))

const sortScratchMaxOversized = 64

func getSortScratch() *sortScratch {
	select {
	case s := <-sortScratchFree:
		return s
	default:
		return new(sortScratch)
	}
}

// putSortScratch returns s, which just served a sort of n indices.
func putSortScratch(s *sortScratch, n int) {
	if 4*n >= cap(s.idx) {
		s.oversized = 0
	} else if s.oversized++; s.oversized >= sortScratchMaxOversized {
		return
	}
	select {
	case sortScratchFree <- s:
	default:
	}
}

// runBlocks runs f(k, lo_k, hi_k) for the w contiguous blocks covering
// [0, n), one goroutine each.
func runBlocks(w, n int, f func(k, lo, hi int)) {
	var pg panicGuard
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(k int) {
			defer wg.Done()
			defer pg.capture()
			f(k, k*n/w, (k+1)*n/w)
		}(k)
	}
	wg.Wait()
	pg.repanic()
}
