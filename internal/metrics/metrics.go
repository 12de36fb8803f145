// Package metrics accumulates the measurements the paper reports: per-flow
// average end-to-end delays, plus distributional summaries and time series
// used by the extended experiments.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// DelayStats accumulates delay samples for one flow. The zero value is
// ready for use (with a fixed default reservoir seed); NewDelayStats gives
// each flow its own sampling stream.
type DelayStats struct {
	count  int64
	sum    float64
	sumSq  float64
	min    float64
	max    float64
	sample []float64 // reservoir for percentiles
	seen   int64
	rngs   uint64 // cheap xorshift state for reservoir sampling
	seed   uint64 // initial rngs value, preserved across Reset
}

const reservoirSize = 4096

// NewDelayStats returns stats whose reservoir-sampling stream is seeded
// from id (typically the flow index). Distinct flows previously shared one
// fixed seed, so their reservoirs made identical accept/evict decisions at
// identical sample counts — a correlated-sampling bias across every
// percentile the experiments report.
func NewDelayStats(id uint64) *DelayStats {
	seed := splitmix64(id)
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &DelayStats{rngs: seed, seed: seed}
}

// splitmix64 is the standard 64-bit finalizer-style mixer: consecutive IDs
// map to decorrelated xorshift seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Add records one delay sample in seconds.
func (s *DelayStats) Add(d float64) {
	if s.count == 0 || d < s.min {
		s.min = d
	}
	if s.count == 0 || d > s.max {
		s.max = d
	}
	s.count++
	s.sum += d
	s.sumSq += d * d
	// Reservoir sampling keeps percentiles O(1) in memory.
	s.seen++
	if len(s.sample) < reservoirSize {
		s.sample = append(s.sample, d)
		return
	}
	if s.rngs == 0 {
		s.rngs = 0x9e3779b97f4a7c15
	}
	s.rngs ^= s.rngs << 13
	s.rngs ^= s.rngs >> 7
	s.rngs ^= s.rngs << 17
	if idx := s.rngs % uint64(s.seen); idx < reservoirSize {
		s.sample[idx] = d
	}
}

// Count returns the number of samples.
func (s *DelayStats) Count() int64 { return s.count }

// Mean returns the average delay, or NaN with no samples.
func (s *DelayStats) Mean() float64 {
	if s.count == 0 {
		return math.NaN()
	}
	return s.sum / float64(s.count)
}

// Variance returns the population variance, or NaN with no samples.
func (s *DelayStats) Variance() float64 {
	if s.count == 0 {
		return math.NaN()
	}
	m := s.Mean()
	v := s.sumSq/float64(s.count) - m*m
	if v < 0 {
		v = 0 // FP cancellation guard
	}
	return v
}

// StdDev returns the standard deviation.
func (s *DelayStats) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest sample, or NaN with no samples.
func (s *DelayStats) Min() float64 {
	if s.count == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest sample, or NaN with no samples.
func (s *DelayStats) Max() float64 {
	if s.count == 0 {
		return math.NaN()
	}
	return s.max
}

// Percentile returns the p-th percentile (0 < p < 100) estimated from the
// reservoir, or NaN with no samples.
func (s *DelayStats) Percentile(p float64) float64 {
	if len(s.sample) == 0 || p <= 0 || p >= 100 {
		return math.NaN()
	}
	tmp := append([]float64(nil), s.sample...)
	sort.Float64s(tmp)
	idx := int(math.Ceil(p/100*float64(len(tmp)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(tmp) {
		idx = len(tmp) - 1
	}
	return tmp[idx]
}

// Reset discards all samples (used at the end of warmup) but keeps the
// flow's sampling seed, so measurement-phase reservoirs stay per-flow
// decorrelated, and the reservoir's storage, so refilling it allocates
// nothing.
func (s *DelayStats) Reset() {
	*s = DelayStats{sample: s.sample[:0], rngs: s.seed, seed: s.seed}
}

// String renders a compact summary in milliseconds.
func (s *DelayStats) String() string {
	if s.count == 0 {
		return "no samples"
	}
	return fmt.Sprintf("n=%d mean=%.3fms p95=%.3fms max=%.3fms",
		s.count, s.Mean()*1e3, s.Percentile(95)*1e3, s.Max()*1e3)
}
