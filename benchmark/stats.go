package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank rule: the smallest value with at least q of the samples
// at or below it. Empty input gives 0.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	rank = max(0, min(rank, len(sorted)-1))
	return sorted[rank]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the middle value, or the mean of the middle two.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// tailQuantiles are the tail percentiles a timing may be reported at.
var tailQuantiles = []float64{0.99, 0.95, 0.90, 0.75}

// tailQuantile picks the highest of tailQuantiles that still has at
// least ten samples beyond it — a percentile resting on fewer samples
// is one slow request, not a property of the system. With under forty
// samples none qualifies and the median stands in.
func tailQuantile(n int) float64 {
	for _, q := range tailQuantiles {
		rank := int(math.Ceil(q * float64(n))) // samples at or below the pick
		if n-rank >= 10 {
			return q
		}
	}
	return 0.5
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
