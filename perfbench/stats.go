package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when
// at least this many samples lie beyond it, so one slow sample cannot
// move it on its own.
const minBeyond = 10

// percentiles are the candidates the tail report picks from, highest
// last.
var percentiles = []float64{0.50, 0.90, 0.99, 0.999}

// rank returns the 0-based nearest-rank index of the q-quantile of n
// sorted samples.
func rank(q float64, n int) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return max(0, min(i, n-1))
}

// beyond is the number of samples above the q-quantile of n samples.
func beyond(q float64, n int) int { return n - 1 - rank(q, n) }

// reportable reports whether the q-quantile of n samples meets the
// percentile rule.
func reportable(q float64, n int) bool { return n > 0 && beyond(q, n) >= minBeyond }

// highestReportable returns the highest candidate percentile that
// meets the rule, or 0 when even the median does not.
func highestReportable(n int) float64 {
	best := 0.0
	for _, q := range percentiles {
		if reportable(q, n) {
			best = q
		}
	}
	return best
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty,
// which the JSON report can carry). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(q, len(s))]
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
