package core

import (
	"math"
	"sort"
)

// reservoirSize bounds the delay samples a flow keeps for percentiles.
const reservoirSize = 4096

// flowStats is one flow's record at its destination: the delay accumulator
// behind Report's delay columns and Delivered, and the reordering count
// behind Reordered. The destination router's shard is its only writer.
type flowStats struct {
	count      int64
	sum, sumSq float64
	// sample is a reservoir of delays for percentiles, refilled in place
	// after reset.
	sample []float64
	// rngs is the xorshift state of the reservoir's sampling stream; seed is
	// its per-flow start, restored by reset so flows stay decorrelated.
	rngs, seed uint64
	// maxSerial is the highest serial delivered since the run began, warmup
	// included; late counts arrivals since reset below it.
	maxSerial uint64
	late      int64
}

// newFlowStats seeds flow id's reservoir stream. With one shared seed,
// every flow's reservoir would make identical accept/evict decisions at
// identical sample counts — a correlated-sampling bias across every
// percentile the experiments report.
func newFlowStats(id uint64) flowStats {
	seed := splitmix64(id)
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return flowStats{rngs: seed, seed: seed}
}

// splitmix64 is the standard 64-bit finalizer-style mixer: consecutive IDs
// map to decorrelated xorshift seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// arrive records one delivered packet: its delay in seconds and its serial.
func (s *flowStats) arrive(delay float64, serial uint64) {
	s.add(delay)
	if serial < s.maxSerial {
		s.late++
	} else {
		s.maxSerial = serial
	}
}

// add records one delay sample in seconds.
func (s *flowStats) add(d float64) {
	s.count++
	s.sum += d
	s.sumSq += d * d
	// Reservoir sampling keeps percentiles O(1) in memory.
	if len(s.sample) < reservoirSize {
		s.sample = append(s.sample, d)
		return
	}
	s.rngs ^= s.rngs << 13
	s.rngs ^= s.rngs >> 7
	s.rngs ^= s.rngs << 17
	if idx := s.rngs % uint64(s.count); idx < reservoirSize {
		s.sample[idx] = d
	}
}

// mean returns the average delay, or NaN with no samples.
func (s *flowStats) mean() float64 {
	if s.count == 0 {
		return math.NaN()
	}
	return s.sum / float64(s.count)
}

// stdDev returns the population standard deviation, or NaN with no samples.
func (s *flowStats) stdDev() float64 {
	if s.count == 0 {
		return math.NaN()
	}
	m := s.mean()
	v := s.sumSq/float64(s.count) - m*m
	if v < 0 {
		v = 0 // FP cancellation guard
	}
	return math.Sqrt(v)
}

// percentile returns the p-th percentile (0 < p < 100) estimated from the
// reservoir, or NaN with no samples.
func (s *flowStats) percentile(p float64) float64 {
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

// reordered returns the fraction of arrivals since reset that came after a
// later-sent packet of the flow.
func (s *flowStats) reordered() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.late) / float64(s.count)
}

// reset discards the samples and the late count (used at the end of
// warmup). It keeps the sampling seed, so measurement-phase reservoirs stay
// per-flow decorrelated; the reservoir's storage, so refilling it allocates
// nothing; and maxSerial, so the first arrivals after warmup are judged
// against everything delivered before them.
func (s *flowStats) reset() {
	*s = flowStats{sample: s.sample[:0], rngs: s.seed, seed: s.seed, maxSerial: s.maxSerial}
}
