package linkcost

import (
	"math"
	"testing"
	"testing/quick"

	"minroute/internal/rng"
)

func TestMM1DelayIdle(t *testing.T) {
	// Idle link: delay = 1/mu + tau.
	got := MM1Delay(0, 100, 0.001)
	want := 0.01 + 0.001
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("idle delay = %v, want %v", got, want)
	}
}

func TestMM1DelayHalfLoad(t *testing.T) {
	got := MM1Delay(50, 100, 0)
	if math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("delay at rho=0.5 = %v, want 0.02", got)
	}
}

func TestMM1MarginalIdle(t *testing.T) {
	// D'(0) = mu/mu^2 = 1/mu.
	got := MM1Marginal(0, 100, 0)
	if math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("marginal at 0 = %v, want 0.01", got)
	}
}

// TestMM1MarginalAgainstNumericalDerivative: on both sides of the clamp
// the three functions are one model — MM1Marginal is the slope of
// MM1Total, and λ·MM1Delay is MM1Total.
func TestMM1MarginalAgainstNumericalDerivative(t *testing.T) {
	const mu, tau = 1250.0, 0.0005
	const h = 1e-3
	for lam := 2 * h; lam <= 1.5*mu; lam += 7.5 {
		numeric := (MM1Total(lam+h, mu, tau) - MM1Total(lam-h, mu, tau)) / (2 * h)
		analytic := MM1Marginal(lam, mu, tau)
		if rel := math.Abs(numeric-analytic) / analytic; rel > 1e-6 {
			t.Errorf("lam=%v: slope of MM1Total %v, MM1Marginal %v (rel %v)", lam, numeric, analytic, rel)
		}
		total := MM1Total(lam, mu, tau)
		if rel := math.Abs(lam*MM1Delay(lam, mu, tau)-total) / total; rel > 1e-12 {
			t.Errorf("lam=%v: lam*MM1Delay %v, MM1Total %v", lam, lam*MM1Delay(lam, mu, tau), total)
		}
	}
}

func TestMM1ClampFiniteAndMonotone(t *testing.T) {
	const mu = 1000.0
	prev := 0.0
	for lam := 0.0; lam <= 3*mu; lam += 10 {
		c := MM1Marginal(lam, mu, 0)
		if math.IsInf(c, 0) || math.IsNaN(c) {
			t.Fatalf("marginal not finite at lam=%v", lam)
		}
		if c < prev {
			t.Fatalf("marginal not monotone at lam=%v: %v < %v", lam, c, prev)
		}
		prev = c
	}
}

func TestMM1ContinuityAtClamp(t *testing.T) {
	const mu, tau = 1000.0, 0.0003
	lc := MaxUtilization * mu
	eps := 1e-6
	for _, fn := range []func(l float64) float64{
		func(l float64) float64 { return MM1Delay(l, mu, tau) },
		func(l float64) float64 { return MM1Total(l, mu, tau) },
		func(l float64) float64 { return MM1Marginal(l, mu, tau) },
	} {
		lo, hi := fn(lc-eps), fn(lc+eps)
		if math.Abs(hi-lo)/lo > 1e-3 {
			t.Fatalf("discontinuity at clamp: %v vs %v", lo, hi)
		}
	}
}

func TestMM1NegativeLambdaTreatedAsZero(t *testing.T) {
	if MM1Delay(-5, 100, 0) != MM1Delay(0, 100, 0) {
		t.Fatal("negative lambda not clamped to zero")
	}
}

func TestMM1PanicsOnBadMu(t *testing.T) {
	for _, fn := range []func(){
		func() { MM1Delay(1, 0, 0) },
		func() { MM1Total(1, -1, 0) },
		func() { MM1Marginal(1, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic for non-positive mu")
				}
			}()
			fn()
		}()
	}
}

func TestPropertyMarginalConvex(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		mu := 100 + r.Float64()*10000
		tau := r.Float64() * 0.01
		// Convexity of D implies the marginal is non-decreasing; check on a
		// random triple.
		a := r.Float64() * 2 * mu
		b := a + r.Float64()*mu
		return MM1Marginal(a, mu, tau) <= MM1Marginal(b, mu, tau)+1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSmoother(t *testing.T) {
	s := NewSmoother(0.5)
	if s.Update(10) != 10 {
		t.Fatal("first sample should initialize")
	}
	if got := s.Update(20); got != 15 {
		t.Fatalf("smoothed = %v, want 15", got)
	}
	if s.Value() != 15 {
		t.Fatalf("Value = %v", s.Value())
	}
}

func TestSmootherPanicsOnBadAlpha(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("alpha %v accepted", a)
				}
			}()
			NewSmoother(a)
		}()
	}
}

func TestOnlineEstimatorIdleFallback(t *testing.T) {
	e := NewOnlineEstimator(0.001, 0.01)
	got := e.Take()
	if math.Abs(got-0.011) > 1e-12 {
		t.Fatalf("idle estimate = %v, want 0.011", got)
	}
}

func TestOnlineEstimatorKeepsLastOnEmptyWindow(t *testing.T) {
	e := NewOnlineEstimator(0, 0.01)
	e.Observe(0.02, 0.01)
	first := e.Take()
	second := e.Take() // no observations in between
	if first != second {
		t.Fatalf("empty window changed estimate: %v -> %v", first, second)
	}
}

func TestOnlineEstimatorIgnoresBadSamples(t *testing.T) {
	e := NewOnlineEstimator(0, 0.01)
	e.Observe(-1, 0.01)
	e.Observe(0.02, 0)
	if got := e.Take(); math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("bad samples not ignored: %v", got)
	}
}

// TestOnlineEstimatorMatchesMM1 drives the estimator with synthetic M/M/1
// samples and checks it recovers the closed-form marginal within tolerance.
func TestOnlineEstimatorMatchesMM1(t *testing.T) {
	const mu, lambda = 1000.0, 600.0
	r := rng.New(42)
	e := NewOnlineEstimator(0, 1/mu)

	// Simulate an M/M/1 queue directly: Lindley recursion for waiting times.
	wait := 0.0
	for i := 0; i < 200000; i++ {
		inter := r.Exp(1 / lambda)
		service := r.Exp(1 / mu)
		wait = math.Max(0, wait-inter)
		sojourn := wait + service
		e.Observe(sojourn, service)
		wait = sojourn
	}
	got := e.Take()
	want := MM1Marginal(lambda, mu, 0)
	if rel := math.Abs(got-want) / want; rel > 0.10 {
		t.Fatalf("online estimate %v vs closed form %v (rel err %v)", got, want, rel)
	}
}

func TestKnownMu(t *testing.T) {
	if mu := KnownMu(10e6, 8000); mu != 1250 {
		t.Fatalf("mu = %v, want 1250", mu)
	}
}

func TestUtilization(t *testing.T) {
	if u := Utilization(500, 1000); u != 0.5 {
		t.Fatalf("utilization = %v", u)
	}
	if u := Utilization(-1, 1000); u != 0 {
		t.Fatalf("negative lambda utilization = %v", u)
	}
	if !math.IsInf(Utilization(1, 0), 1) {
		t.Fatal("zero-mu utilization not +Inf")
	}
}

func BenchmarkMM1Marginal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = MM1Marginal(900, 1250, 0.0005)
	}
}
