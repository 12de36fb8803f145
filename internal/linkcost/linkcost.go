// Package linkcost computes link costs — marginal delays — as Section 4.3
// of the paper prescribes.
//
// The paper's Eq. (24) models each link as an M/M/1 queue:
//
//	D_ik(f) = f/(C−f) + τ·f
//
// where D is "expected number of packets per second transmitted on the link
// times the expected delay per packet", f the link flow, C the capacity and
// τ the propagation delay. The link cost is the marginal delay
//
//	l_ik = D′_ik(f) = C/(C−f)² + τ.
//
// Flows here are in packets per second and capacities are service rates
// μ = C_bits / L_bits (packets per second), which makes D dimensionally a
// delay-weighted packet rate exactly as in the paper.
//
// Because Eq. (24) "becomes unstable when f approaches C", costs are clamped
// smoothly above a utilization threshold: the marginal is extended linearly
// with matching slope, the total is its integral and the per-packet delay
// the total over λ, so the three stay one model (monotone and convex) past
// the clamp. An online estimator in the spirit of Cassandras–Abidi–Towsley
// perturbation analysis is provided that needs no a-priori knowledge of the
// capacity.
package linkcost

import "math"

// MaxUtilization is the utilization beyond which the closed-form M/M/1
// expressions are extended (see the package comment). It is one of two
// pricing rules near saturation; the other is router.utilizationCap (0.9),
// the utilization at which the routing agent caps a measured link's cost
// before calling MM1Marginal, so advertised costs never reach this clamp.
// The fluid model and OPT price at this one alone.
const MaxUtilization = 0.98

// MM1Delay returns the expected per-packet delay 1/(μ−λ) + τ of an M/M/1
// link; above MaxUtilization it is MM1Total/λ. It panics when mu <= 0.
func MM1Delay(lambda, mu, tau float64) float64 {
	if mu <= 0 {
		panic("linkcost: non-positive service rate")
	}
	if lambda < 0 {
		lambda = 0
	}
	lc := MaxUtilization * mu
	if lambda <= lc {
		return 1/(mu-lambda) + tau
	}
	// Past the clamp the per-packet delay is what the extended total
	// charges each packet, so λ·MM1Delay = MM1Total everywhere.
	return MM1Total(lambda, mu, tau) / lambda
}

// MM1Total returns the paper's Eq. (24): D(f) = f/(C−f) + τ·f, clamped.
func MM1Total(lambda, mu, tau float64) float64 {
	if mu <= 0 {
		panic("linkcost: non-positive service rate")
	}
	if lambda < 0 {
		lambda = 0
	}
	lc := MaxUtilization * mu
	if lambda <= lc {
		return lambda/(mu-lambda) + tau*lambda
	}
	base := lc/(mu-lc) + tau*lc
	// Continue with the integral of MM1Marginal's linear extension, so the
	// slope of D is MM1Marginal on both sides of the clamp and D stays
	// convex and increasing: base + M(λc)·x + ½·M′(λc)·x², x = λ−λc.
	d := mu - lc
	x := lambda - lc
	return base + (mu/(d*d)+tau)*x + mu/(d*d*d)*x*x
}

// MM1Marginal returns the link cost l = D′(f) = μ/(μ−λ)² + τ, linearly
// extended above MaxUtilization so that it remains finite, increasing and
// convex — properties both Gallager's iteration and the allocation
// heuristics rely on.
func MM1Marginal(lambda, mu, tau float64) float64 {
	if mu <= 0 {
		panic("linkcost: non-positive service rate")
	}
	if lambda < 0 {
		lambda = 0
	}
	lc := MaxUtilization * mu
	if lambda <= lc {
		d := mu - lambda
		return mu/(d*d) + tau
	}
	d := mu - lc
	base := mu / (d * d)
	slope := 2 * mu / (d * d * d) // D′′ at the clamp point
	return base + slope*(lambda-lc) + tau
}

// Smoother maintains an exponentially weighted moving average of a rate,
// used to stabilize long-term link costs between Tl updates.
type Smoother struct {
	alpha float64
	value float64
	init  bool
}

// NewSmoother returns a Smoother with the given weight for new samples;
// alpha must be in (0, 1].
func NewSmoother(alpha float64) *Smoother {
	if alpha <= 0 || alpha > 1 {
		panic("linkcost: smoother alpha out of (0,1]")
	}
	return &Smoother{alpha: alpha}
}

// Update folds in a new sample and returns the smoothed value.
func (s *Smoother) Update(sample float64) float64 {
	if !s.init {
		s.value = sample
		s.init = true
		return s.value
	}
	s.value += s.alpha * (sample - s.value)
	return s.value
}

// Value returns the current smoothed value (zero before the first sample).
func (s *Smoother) Value() float64 { return s.value }

// OnlineEstimator estimates the marginal delay of a link from per-packet
// observations only — measured sojourn times and service times — without
// a-priori knowledge of the link capacity. This is the role the paper
// assigns to the Cassandras–Abidi–Towsley perturbation-analysis estimator;
// see DESIGN.md for the substitution note.
//
// Derivation: for an M/M/1 link, W = 1/(μ−λ) and the marginal delay is
// D′(λ) = μ/(μ−λ)² = W²·μ. Both W and μ (via the mean service time) are
// directly observable, so D′ ≈ W̄²/s̄. For non-Poisson input this remains a
// consistent busy-period-based sensitivity estimate in the PA spirit.
type OnlineEstimator struct {
	tau      float64 // propagation delay, added to every estimate
	fallback float64 // estimate to report before any packet is observed

	n           int64
	sumSojourn  float64
	sumService  float64
	lastEstim   float64
	hasEstimate bool
}

// NewOnlineEstimator returns an estimator for a link with the given
// propagation delay. fallbackServiceTime seeds the idle-link estimate
// (typically meanPacketBits/capacity); it must be positive.
func NewOnlineEstimator(tau, fallbackServiceTime float64) *OnlineEstimator {
	if fallbackServiceTime <= 0 {
		panic("linkcost: non-positive fallback service time")
	}
	return &OnlineEstimator{tau: tau, fallback: fallbackServiceTime}
}

// Observe records one transmitted packet: its sojourn time in the queue
// (waiting plus transmission) and its transmission (service) time.
func (e *OnlineEstimator) Observe(sojourn, service float64) {
	if sojourn < 0 || service <= 0 {
		return // clock skew or zero-size guard; ignore the sample
	}
	e.n++
	e.sumSojourn += sojourn
	e.sumService += service
}

// Take returns the marginal-delay estimate over the window since the last
// Take and resets the accumulators. Windows with no packets return the
// previous estimate, or the idle-link marginal 1/μ + τ when there has never
// been one.
func (e *OnlineEstimator) Take() float64 {
	if e.n == 0 {
		if e.hasEstimate {
			return e.lastEstim
		}
		return e.fallback + e.tau
	}
	w := e.sumSojourn / float64(e.n)
	s := e.sumService / float64(e.n)
	e.n = 0
	e.sumSojourn = 0
	e.sumService = 0
	est := w*w/s + e.tau
	e.lastEstim = est
	e.hasEstimate = true
	return est
}

// MeanPacketBits is the paper's 1000-byte mean packet: the simulated
// sources draw it, and the routers and OPT convert rates with it.
const MeanPacketBits = 8000

// KnownMu returns the service rate in packets/s for a link of cap bits/s and
// mean packet size meanBits. It panics on non-positive arguments.
func KnownMu(capacityBits, meanPacketBits float64) float64 {
	if capacityBits <= 0 || meanPacketBits <= 0 {
		panic("linkcost: non-positive capacity or packet size")
	}
	return capacityBits / meanPacketBits
}

// Utilization returns λ/μ clamped to [0, ∞).
func Utilization(lambda, mu float64) float64 {
	if mu <= 0 {
		return math.Inf(1)
	}
	if lambda < 0 {
		lambda = 0
	}
	return lambda / mu
}
