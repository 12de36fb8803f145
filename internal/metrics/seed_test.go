package metrics

import (
	"math"
	"runtime"
	"testing"
)

// feedRamp pushes a deterministic 0..n-1 ramp, three reservoirs deep, so
// the percentile estimates depend entirely on the reservoir's accept/evict
// decisions — i.e. on the sampling seed.
func feedRamp(s *DelayStats) {
	for i := 0; i < 3*reservoirSize; i++ {
		s.Add(float64(i))
	}
}

// TestReservoirQuantilesPinned is the regression test for the shared-seed
// bug: every flow's reservoir used to start from the same fixed xorshift
// state, making all flows sample in lockstep. The pinned values also freeze
// the sampling stream of flow 3 — any change to the seeding or the xorshift
// taps shows up here.
func TestReservoirQuantilesPinned(t *testing.T) {
	s := NewDelayStats(3)
	feedRamp(s)
	for _, tc := range []struct{ p, want float64 }{
		{5, 655}, {50, 6076}, {95, 11681},
	} {
		if got := s.Percentile(tc.p); got != tc.want {
			t.Fatalf("flow-3 ramp p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestReservoirSeedsDecorrelated(t *testing.T) {
	a, b := NewDelayStats(0), NewDelayStats(1)
	feedRamp(a)
	feedRamp(b)
	same := 0
	for _, p := range []float64{5, 25, 50, 75, 95} {
		if a.Percentile(p) == b.Percentile(p) {
			same++
		}
	}
	if same == 5 {
		t.Fatal("flows 0 and 1 sampled identically: reservoir seeds are correlated")
	}
	// Identical flow IDs must still sample identically (determinism).
	c := NewDelayStats(0)
	feedRamp(c)
	for _, p := range []float64{5, 50, 95} {
		if a.Percentile(p) != c.Percentile(p) {
			t.Fatalf("flow 0 p%v differs across identical runs", p)
		}
	}
}

func TestResetPreservesSeed(t *testing.T) {
	a := NewDelayStats(42)
	feedRamp(a)
	b := NewDelayStats(42)
	b.Add(1)
	b.Add(2)
	b.Reset()
	if b.Count() != 0 {
		t.Fatalf("count after Reset = %d", b.Count())
	}
	feedRamp(b)
	for _, p := range []float64{5, 50, 95} {
		if a.Percentile(p) != b.Percentile(p) {
			t.Fatalf("p%v after Reset diverged: Reset lost the flow seed", p)
		}
	}
}

// TestResetReusesReservoir resets a full reservoir: the same samples must
// then give bit-equal percentiles to a fresh flow's, and the first
// reservoirSize of them — the ones that fill it — must allocate nothing.
func TestResetReusesReservoir(t *testing.T) {
	a, b := NewDelayStats(7), NewDelayStats(7)
	feedRamp(a)
	for i := 0; i < 2*reservoirSize; i++ {
		b.Add(-1) // warm-up samples Reset must leave no trace of
	}
	b.Reset()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reservoirSize; i++ {
		b.Add(float64(i))
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got != 0 {
		t.Fatalf("refilling the reservoir after Reset: %d allocs, want 0", got)
	}
	for i := reservoirSize; i < 3*reservoirSize; i++ {
		b.Add(float64(i))
	}
	for p := 1.0; p < 100; p++ {
		if pa, pb := a.Percentile(p), b.Percentile(p); math.Float64bits(pa) != math.Float64bits(pb) {
			t.Fatalf("p%v after Reset = %v, fresh flow %v", p, pb, pa)
		}
	}
}
