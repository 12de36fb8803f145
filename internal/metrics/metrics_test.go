package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"minroute/internal/rng"
)

func TestDelayStatsBasic(t *testing.T) {
	var s DelayStats
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	if s.Count() != 4 {
		t.Fatalf("count = %d", s.Count())
	}
	if s.Mean() != 2.5 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 4 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	if got, want := s.Variance(), 1.25; math.Abs(got-want) > 1e-12 {
		t.Fatalf("variance = %v, want %v", got, want)
	}
	if got := s.StdDev(); math.Abs(got-math.Sqrt(1.25)) > 1e-12 {
		t.Fatalf("stddev = %v", got)
	}
}

func TestDelayStatsEmpty(t *testing.T) {
	var s DelayStats
	for name, v := range map[string]float64{
		"mean": s.Mean(), "variance": s.Variance(),
		"min": s.Min(), "max": s.Max(), "p50": s.Percentile(50),
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s of empty stats = %v, want NaN", name, v)
		}
	}
	if s.String() != "no samples" {
		t.Errorf("String = %q", s.String())
	}
}

func TestDelayStatsPercentile(t *testing.T) {
	var s DelayStats
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if p := s.Percentile(50); p < 45 || p > 55 {
		t.Fatalf("p50 = %v", p)
	}
	if p := s.Percentile(95); p < 90 || p > 100 {
		t.Fatalf("p95 = %v", p)
	}
	if !math.IsNaN(s.Percentile(0)) || !math.IsNaN(s.Percentile(100)) {
		t.Fatal("percentile bounds not rejected")
	}
}

func TestDelayStatsReservoirLargeStream(t *testing.T) {
	var s DelayStats
	r := rng.New(9)
	for i := 0; i < 100000; i++ {
		s.Add(r.Float64())
	}
	// Uniform[0,1): p50 ~ 0.5 within reservoir error.
	if p := s.Percentile(50); math.Abs(p-0.5) > 0.05 {
		t.Fatalf("reservoir p50 = %v", p)
	}
	if m := s.Mean(); math.Abs(m-0.5) > 0.01 {
		t.Fatalf("mean = %v", m)
	}
}

func TestDelayStatsReset(t *testing.T) {
	var s DelayStats
	s.Add(5)
	s.Reset()
	if s.Count() != 0 || !math.IsNaN(s.Mean()) {
		t.Fatal("Reset did not clear")
	}
}

func TestDelayStatsString(t *testing.T) {
	var s DelayStats
	s.Add(0.001)
	if !strings.Contains(s.String(), "n=1") {
		t.Fatalf("String = %q", s.String())
	}
}

func TestPropertyVarianceNonNegative(t *testing.T) {
	check := func(seed uint64, n8 uint8) bool {
		r := rng.New(seed)
		var s DelayStats
		n := int(n8) + 1
		for i := 0; i < n; i++ {
			s.Add(r.Float64() * 100)
		}
		v := s.Variance()
		return v >= 0 && !math.IsNaN(v) && s.Min() <= s.Mean() && s.Mean() <= s.Max()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
