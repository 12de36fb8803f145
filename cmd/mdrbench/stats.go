package main

import (
	"fmt"
	"math"
	"sort"
)

// sortedCopy returns xs ascending without touching the caller's slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive method,
// the one Python's statistics.quantiles(xs, n=4) uses, so a spread computed
// here matches the one the acceptance driver computes. Fewer than two
// samples have no spread: both quartiles are the sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if len(xs) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / med)
}

// percentile returns the nearest-rank p-th percentile of an ascending
// sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// percentileLadder is the set of tail percentiles a timing may be
// reported at.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// topPercentile picks the highest ladder percentile that still has at
// least ten samples beyond it — a tail estimate resting on fewer is one
// outlier's opinion. With under twenty samples not even the median
// qualifies, and ok is false.
func topPercentile(n int) (p float64, ok bool) {
	for _, c := range percentileLadder {
		// Nearest-rank: the percentile is the rank-th smallest sample, and
		// the samples beyond it are the ones ranked above. (The 1e-9 keeps
		// 90 % of 100 at rank 90 despite binary fractions.)
		rank := int(math.Ceil(c/100*float64(n) - 1e-9))
		if n-rank >= 10 {
			p, ok = c, true
		}
	}
	if !ok {
		p = 50
	}
	return p, ok
}

// timing is the summary every measured duration is printed as.
type timing struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// TopP is the percentile Top was read at (see topPercentile); zero
	// when the sample is too small to support one.
	TopP float64 `json:"top_p,omitempty"`
	Top  float64 `json:"top,omitempty"`
}

func summarize(xs []float64) timing {
	t := timing{N: len(xs), Median: median(xs)}
	t.Q1, t.Q3 = quartiles(xs)
	if p, ok := topPercentile(len(xs)); ok {
		t.TopP, t.Top = p, percentile(sortedCopy(xs), p)
	}
	return t
}

func (t timing) String() string {
	s := fmt.Sprintf("median %.6g  q1 %.6g  q3 %.6g  n=%d", t.Median, t.Q1, t.Q3, t.N)
	if t.TopP > 0 {
		s += fmt.Sprintf("  p%g %.6g", t.TopP, t.Top)
	}
	return s
}
