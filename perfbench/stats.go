package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples a reported tail percentile must leave
// above it; a percentile with fewer samples beyond it is one outlier away
// from a different value.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or below
// it.  It returns 0 for an empty slice, so a layer with no samples in a run
// reports 0 rather than a NaN the JSON output cannot carry.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), p)]
}

// rankIndex is the index of the nearest-rank p-th percentile among n samples.
func rankIndex(n int, p float64) int {
	// The epsilon keeps float error in p/100*n (99.9% of 10000 computes as
	// 9990.000000000002) from moving the rank up by one.
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	return min(max(i, 0), n-1)
}

// samplesBeyond is how many of n samples lie strictly above the nearest-rank
// p-th percentile's position.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

// highestSupported returns the highest of the candidate percentiles that
// leaves at least minBeyond of n samples beyond it, or 0 when none does.
func highestSupported(n int, candidates []float64) float64 {
	best := 0.0
	for _, p := range candidates {
		if p > best && samplesBeyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// tailCandidates are the percentiles a workload's tail may be fixed at.
var tailCandidates = []float64{75, 80, 90, 95, 99, 99.9}

// sortedMS converts durations to sorted milliseconds.
func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// sortedCopy returns the values sorted ascending, leaving vs untouched.
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// median of unsorted values.
func median(vs []float64) float64 { return percentile(sortedCopy(vs), 50) }

// mean returns the arithmetic mean, summing in slice order so equal inputs
// give bit-equal results, or 0 for an empty slice.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}
