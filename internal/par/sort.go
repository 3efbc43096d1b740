package par

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
)

// SortByKeys stably sorts the pairs (keys[i], idx[i]) by key: keys and idx
// are permuted together, and pairs with equal keys keep their order. It is
// the Parallel Sort of the paper's HILBERTSORT step, which sorts
// (hilbert, body) pairs; idx, started as the identity, is the permutation
// the caller then applies to the body arrays, and keys comes out sorted.
//
// The implementation is a least-significant-digit radix sort over 11-bit
// digits, parallel over one block of pairs per worker (one block under
// Seq): six passes cover a 63-bit curve key, and only the digits needed to
// cover the largest key are processed. Each pass histograms per block,
// turns the (digit, block) grid into scatter offsets with an exclusive
// scan, and scatters the blocks in parallel, reading both arrays in order.
// Every pass is stable, so the whole sort is; a stable order is unique, so
// the result does not depend on the policy or the worker count. Below 4096
// pairs a comparison sort runs instead.
func SortByKeys(r *Runtime, p Policy, keys []uint64, idx []int32) {
	n := len(idx)
	if len(keys) != n {
		panic(fmt.Sprintf("par: %d keys for %d indices", len(keys), n))
	}
	if n < 4096 {
		// A comparison sort is faster than radix bookkeeping for small
		// inputs.
		sort.Stable(keyPairs{keys, idx})
		return
	}
	const radixBits = 11
	const buckets = 1 << radixBits

	w := r.workers
	if p == Seq {
		w = 1
	}
	maxKey := ReduceRanges(r, p, n, 0,
		func(a, b uint64) uint64 { return max(a, b) },
		func(acc uint64, lo, hi int) uint64 {
			for _, k := range keys[lo:hi] {
				acc = max(acc, k)
			}
			return acc
		})
	passes := (bits.Len64(maxKey) + radixBits - 1) / radixBits

	scratch := getSortScratch()
	defer putSortScratch(scratch, n)
	if cap(scratch.idx) < n {
		scratch.keys = make([]uint64, n)
		scratch.idx = make([]int32, n)
	}
	if cap(scratch.hist) < w*buckets {
		scratch.hist = make([]int32, w*buckets)
	}
	srcK, srcI := keys, idx
	dstK, dstI := scratch.keys[:n], scratch.idx[:n]
	hist := scratch.hist[:w*buckets] // hist[b*buckets+d]

	for pass := 0; pass < passes; pass++ {
		shift := uint(pass * radixBits)
		fromK, fromI, toK, toI := srcK, srcI, dstK, dstI

		// Per-block digit histograms.
		runBlocks(w, n, func(k, lo, hi int) {
			h := hist[k*buckets : (k+1)*buckets]
			clear(h)
			for _, key := range fromK[lo:hi] {
				h[key>>shift&(buckets-1)]++
			}
		})

		// Exclusive scan in (digit-major, block-minor) order: the first
		// pair with digit d in block b lands at offset
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
				key := fromK[i]
				d := key >> shift & (buckets - 1)
				at := h[d]
				toK[at], toI[at] = key, fromI[i]
				h[d] = at + 1
			}
		})

		srcK, srcI, dstK, dstI = toK, toI, fromK, fromI
	}
	if passes%2 == 1 {
		copy(keys, srcK)
		copy(idx, srcI)
	}
}

// keyPairs is SortByKeys' pairs as a sort.Interface.
type keyPairs struct {
	keys []uint64
	idx  []int32
}

func (p keyPairs) Len() int           { return len(p.keys) }
func (p keyPairs) Less(i, j int) bool { return p.keys[i] < p.keys[j] }
func (p keyPairs) Swap(i, j int) {
	p.keys[i], p.keys[j] = p.keys[j], p.keys[i]
	p.idx[i], p.idx[j] = p.idx[j], p.idx[i]
}

// sortScratch is what one radix sort needs beside its arguments: the
// buffers the passes scatter into and the per-block digit histograms.
// oversized counts the consecutive sorts that needed under a quarter of idx.
type sortScratch struct {
	keys      []uint64
	idx, hist []int32
	oversized int
}

// sortScratchFree recycles scratch across sorts: a tree rebuild sorts every
// step, and 12 bytes a key per step would be most of what a step allocated.
// Runtimes are shared between simulations (par.Default), so the scratch
// cannot live on the Runtime; a sort owns what it took until it returns it.
//
// A channel, not a sync.Pool: a pool keeps what it is given per P, and a
// sort returns on whichever P finished its last block, so a lone simulation
// would keep missing (and allocating 12 bytes a key again) until every P
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
// [0, n), one goroutine each, or inline when there is one block.
func runBlocks(w, n int, f func(k, lo, hi int)) {
	if w == 1 {
		f(0, 0, n)
		return
	}
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
