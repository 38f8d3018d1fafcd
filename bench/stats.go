package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: with fewer, the figure is a property of a
// handful of outliers, not of the distribution.
const minBeyond = 10

// percentile is the nearest-rank percentile of an ascending slice:
// the smallest sample with at least p of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// samplesBeyond counts the samples strictly above the nearest-rank
// percentile p of n samples.
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// supported reports whether n samples carry percentile p under the
// minBeyond rule. p90 needs 100 samples, p99 needs 1000.
func supported(n int, p float64) bool { return samplesBeyond(n, p) >= minBeyond }

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// p50 is the nearest-rank median of v (unsorted input).
func p50(v []float64) float64 { return percentile(sorted(v), 0.5) }

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// iqrShare is the interquartile range of v as a share of its median:
// the run-to-run spread measure of the benchmark contract, applied by
// the ladder to the rounds of one run.
func iqrShare(v []float64) float64 {
	s := sorted(v)
	med := percentile(s, 0.5)
	if len(s) < 4 || med == 0 {
		return 0
	}
	return (percentile(s, 0.75) - percentile(s, 0.25)) / med
}
