package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the value is set by a handful of outliers and does
// not repeat from run to run.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule. supported is false when fewer than minBeyond samples lie
// above the returned one; the caller then prints "unsupported", not a number.
func percentile(sorted []int64, q float64) (v int64, supported bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], n-1-i >= minBeyond
}

// stat is one end-to-end metric over the repetitions of a run.
type stat struct {
	Median float64 `json:"median"`
	// Spread is (max−min)/median over the repetitions.
	Spread float64   `json:"spread"`
	Reps   []float64 `json:"reps"`
}

// summarize reduces the per-repetition values of a metric to their median and
// spread. The median of an even count is the mean of the middle two.
func summarize(reps []float64) stat {
	s := append([]float64(nil), reps...)
	sort.Float64s(s)
	n := len(s)
	st := stat{Reps: reps}
	if n == 0 {
		return st
	}
	st.Median = (s[(n-1)/2] + s[n/2]) / 2
	if st.Median != 0 {
		st.Spread = (s[n-1] - s[0]) / st.Median
	}
	return st
}
