package main

import (
	"math"
	"sort"
)

// tenBeyond is the number of samples that must lie beyond a reported
// percentile: a p99 needs 1000 samples, a p95 200 and a median 20.
const tenBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// reports false when fewer than tenBeyond samples lie beyond that rank,
// because such a tail value is one outlier rather than a measurement.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if n-rank < tenBeyond {
		return 0, false
	}
	s := sortedCopy(xs)
	return s[rank-1], true
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean of xs, which must all be positive;
// it returns 0 for an empty sample or any non-positive value.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// mean returns the arithmetic mean of xs, or 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
