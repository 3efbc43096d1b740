package main

import (
	"math"
	"slices"
)

// tailLadder lists the percentiles a tail metric may be reported at,
// ascending. A tail is only reported where minBeyond samples lie above it,
// so a short run never reports a percentile that is really its maximum.
var tailLadder = []float64{50, 60, 70, 75, 80, 90, 95, 99}

const minBeyond = 10

// tailPercentile returns the highest ladder percentile, not above want,
// with at least minBeyond of n samples strictly beyond it (50 when even
// that fails). want is the workload's fixed tail percentile; a run too
// short to support it steps down the ladder and says so in its output.
func tailPercentile(n int, want float64) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if p <= want && samplesBeyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// samplesBeyond counts the samples of n ranked strictly above percentile p
// under the nearest-rank definition percentile uses.
func samplesBeyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest rank of percentile p among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank percentile p of sorted (ascending).
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)-1]
}

// median returns the middle value of xs (mean of the two middle values for
// even counts). xs is not modified.
func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// relSpread is the largest pairwise relative difference of xs,
// (max − min) ÷ median: the calibration's noise figure.
func relSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (slices.Max(xs) - slices.Min(xs)) / math.Abs(med)
}
