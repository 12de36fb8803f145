package core

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"minroute/internal/rng"
)

func TestDelayStatsBasic(t *testing.T) {
	s := newFlowStats(0)
	for _, v := range []float64{1, 2, 3, 4} {
		s.add(v)
	}
	if s.count != 4 {
		t.Fatalf("count = %d", s.count)
	}
	if s.mean() != 2.5 {
		t.Fatalf("mean = %v", s.mean())
	}
	if got := s.stdDev(); math.Abs(got-math.Sqrt(1.25)) > 1e-12 {
		t.Fatalf("stddev = %v", got)
	}
}

func TestDelayStatsEmpty(t *testing.T) {
	s := newFlowStats(0)
	for name, v := range map[string]float64{
		"mean": s.mean(), "stddev": s.stdDev(), "p50": s.percentile(50),
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s of empty stats = %v, want NaN", name, v)
		}
	}
	if s.reordered() != 0 {
		t.Errorf("reordered of empty stats = %v, want 0", s.reordered())
	}
}

func TestDelayStatsPercentile(t *testing.T) {
	s := newFlowStats(0)
	for i := 1; i <= 100; i++ {
		s.add(float64(i))
	}
	if p := s.percentile(50); p < 45 || p > 55 {
		t.Fatalf("p50 = %v", p)
	}
	if p := s.percentile(95); p < 90 || p > 100 {
		t.Fatalf("p95 = %v", p)
	}
	if !math.IsNaN(s.percentile(0)) || !math.IsNaN(s.percentile(100)) {
		t.Fatal("percentile bounds not rejected")
	}
}

func TestDelayStatsReservoirLargeStream(t *testing.T) {
	s := newFlowStats(0)
	r := rng.New(9)
	for i := 0; i < 100000; i++ {
		s.add(r.Float64())
	}
	// Uniform[0,1): p50 ~ 0.5 within reservoir error.
	if p := s.percentile(50); math.Abs(p-0.5) > 0.05 {
		t.Fatalf("reservoir p50 = %v", p)
	}
	if m := s.mean(); math.Abs(m-0.5) > 0.01 {
		t.Fatalf("mean = %v", m)
	}
}

// TestDelayStatsReset: reset clears the samples and the late count but
// keeps the highest serial, so the first arrival after it is still judged
// against the packets delivered before.
func TestDelayStatsReset(t *testing.T) {
	s := newFlowStats(0)
	s.arrive(5, 3)
	s.arrive(5, 2)
	s.reset()
	if s.count != 0 || !math.IsNaN(s.mean()) || s.reordered() != 0 {
		t.Fatal("reset did not clear")
	}
	s.arrive(5, 1)
	if s.reordered() != 1 {
		t.Fatalf("serial 1 after serial 3: reordered = %v, want 1", s.reordered())
	}
}

func TestPropertyVarianceNonNegative(t *testing.T) {
	check := func(seed uint64, n8 uint8) bool {
		r := rng.New(seed)
		s := newFlowStats(seed)
		n := int(n8) + 1
		for i := 0; i < n; i++ {
			s.add(r.Float64() * 100)
		}
		sd := s.stdDev()
		return sd >= 0 && !math.IsNaN(sd) && s.mean() >= 0 && s.mean() <= 100
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// feedRamp pushes a deterministic 0..n-1 ramp, three reservoirs deep, so
// the percentile estimates depend entirely on the reservoir's accept/evict
// decisions — i.e. on the sampling seed.
func feedRamp(s *flowStats) {
	for i := 0; i < 3*reservoirSize; i++ {
		s.add(float64(i))
	}
}

// TestReservoirQuantilesPinned is the regression test for the shared-seed
// bug: every flow's reservoir used to start from the same fixed xorshift
// state, making all flows sample in lockstep. The pinned values also freeze
// the sampling stream of flow 3 — any change to the seeding or the xorshift
// taps shows up here.
func TestReservoirQuantilesPinned(t *testing.T) {
	s := newFlowStats(3)
	feedRamp(&s)
	for _, tc := range []struct{ p, want float64 }{
		{5, 655}, {50, 6076}, {95, 11681},
	} {
		if got := s.percentile(tc.p); got != tc.want {
			t.Fatalf("flow-3 ramp p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestReservoirSeedsDecorrelated(t *testing.T) {
	a, b := newFlowStats(0), newFlowStats(1)
	feedRamp(&a)
	feedRamp(&b)
	same := 0
	for _, p := range []float64{5, 25, 50, 75, 95} {
		if a.percentile(p) == b.percentile(p) {
			same++
		}
	}
	if same == 5 {
		t.Fatal("flows 0 and 1 sampled identically: reservoir seeds are correlated")
	}
	// Identical flow IDs must still sample identically (determinism).
	c := newFlowStats(0)
	feedRamp(&c)
	for _, p := range []float64{5, 50, 95} {
		if a.percentile(p) != c.percentile(p) {
			t.Fatalf("flow 0 p%v differs across identical runs", p)
		}
	}
}

func TestResetPreservesSeed(t *testing.T) {
	a := newFlowStats(42)
	feedRamp(&a)
	b := newFlowStats(42)
	b.add(1)
	b.add(2)
	b.reset()
	if b.count != 0 {
		t.Fatalf("count after reset = %d", b.count)
	}
	feedRamp(&b)
	for _, p := range []float64{5, 50, 95} {
		if a.percentile(p) != b.percentile(p) {
			t.Fatalf("p%v after reset diverged: reset lost the flow seed", p)
		}
	}
}

// TestResetReusesReservoir resets a full reservoir: the same samples must
// then give bit-equal percentiles to a fresh flow's, and the first
// reservoirSize of them — the ones that fill it — must allocate nothing.
func TestResetReusesReservoir(t *testing.T) {
	a, b := newFlowStats(7), newFlowStats(7)
	feedRamp(&a)
	for i := 0; i < 2*reservoirSize; i++ {
		b.add(-1) // warm-up samples reset must leave no trace of
	}
	b.reset()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reservoirSize; i++ {
		b.add(float64(i))
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got != 0 {
		t.Fatalf("refilling the reservoir after reset: %d allocs, want 0", got)
	}
	for i := reservoirSize; i < 3*reservoirSize; i++ {
		b.add(float64(i))
	}
	for p := 1.0; p < 100; p++ {
		if pa, pb := a.percentile(p), b.percentile(p); math.Float64bits(pa) != math.Float64bits(pb) {
			t.Fatalf("p%v after reset = %v, fresh flow %v", p, pb, pa)
		}
	}
}
