package main

import (
	"math"
	"sort"
)

// minTailSamples is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minTailSamples = 10

// tailCandidates are the percentiles a tail is reported at, highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs need not be sorted. It returns 0
// for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median returns the 50th percentile of xs.
func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentile picks the highest candidate percentile that has at least
// minTailSamples samples beyond it and returns that percentile with its
// value. With too few samples for any tail it falls back to the median,
// the one timing such a sample supports.
func tailPercentile(xs []float64) (p, v float64) {
	n := float64(len(xs))
	for _, q := range tailCandidates {
		if n*(100-q)/100 >= minTailSamples-1e-9 { // 1e-9 absorbs the rounding of 100-q

			return q, percentile(xs, q)
		}
	}
	return 50, percentile(xs, 50)
}
