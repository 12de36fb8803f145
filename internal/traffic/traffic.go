// Package traffic generates offered load: Poisson sources (the stationary
// experiments of Section 5.1), on-off bursty sources (the dynamic-traffic
// experiments), constant-bit-rate sources (calibration tests), and a
// lock-step adversary (worst-case bursts). All sources draw from explicit
// RNG streams so runs are reproducible, and none knows its clock: the host
// supplies the scheduling function, so the simulator (core.Build) and the
// live mesh (node.TrafficGen) replay one arrival process draw for draw.
package traffic

import "minroute/internal/rng"

// Emit delivers one generated packet of the given size in bits.
type Emit func(bits float64)

// After schedules fn to run d seconds from now on the host's clock. A host
// that has stopped may drop the call; the source then simply goes quiet.
type After func(d float64, fn func())

// Source generates packets once started. Start schedules the first arrival
// through after; generation continues while the host keeps honouring it.
type Source interface {
	Start(after After, r *rng.Source, emit Emit)
}

// Poisson is a stationary source: exponential interarrival times and
// exponential packet sizes, so a single bottleneck behaves as M/M/1.
type Poisson struct {
	// RateBits is the average offered load in bits per second.
	RateBits float64
	// MeanPacketBits is the average packet size.
	MeanPacketBits float64
}

// Start implements Source.
func (p Poisson) Start(after After, r *rng.Source, emit Emit) {
	if p.RateBits <= 0 || p.MeanPacketBits <= 0 {
		return
	}
	meanGap := p.MeanPacketBits / p.RateBits
	var arrive func()
	arrive = func() {
		emit(r.Exp(p.MeanPacketBits))
		after(r.Exp(meanGap), arrive)
	}
	after(r.Exp(meanGap), arrive)
}

// OnOff is a bursty source alternating exponential ON and OFF periods.
// During ON it emits Poisson traffic at PeakFactor times the average rate;
// the duty cycle is set so the long-run average equals RateBits. The
// paper's dynamic experiments use such sources to show that MP absorbs
// "short bursts of traffic" that single-path routing cannot.
type OnOff struct {
	// RateBits is the long-run average offered load in bits per second.
	RateBits float64
	// MeanPacketBits is the average packet size.
	MeanPacketBits float64
	// PeakFactor is the ON-period rate divided by RateBits; must be > 1.
	PeakFactor float64
	// MeanOn is the average ON-period length in seconds.
	MeanOn float64
}

// Start implements Source.
func (o OnOff) Start(after After, r *rng.Source, emit Emit) {
	if o.RateBits <= 0 || o.MeanPacketBits <= 0 {
		return
	}
	peak, meanOn, meanOff := burstShape(o.PeakFactor, o.MeanOn)
	peakGap := o.MeanPacketBits / (o.RateBits * peak)
	// Start in a random phase of the cycle.
	startOn := r.Float64() < 1/peak
	bursts(after, emit, startOn,
		func() float64 { return r.Exp(peakGap) },
		func() float64 { return r.Exp(o.MeanPacketBits) },
		func() float64 { return r.Exp(meanOn) },
		func() float64 { return r.Exp(meanOff) })
}

// Adversary is a worst-case pattern for a weighted-multipath plane:
// deterministic fixed-size packets at PeakFactor times the average rate for
// OnLen seconds, then silence for OnLen*(PeakFactor-1), with no phase
// jitter anywhere — it never draws from its rng, so every Adversary source
// of one run fires the same schedule and entire burst fronts land on the
// same next hops at the same instant.
type Adversary struct {
	// RateBits is the long-run average offered load in bits per second.
	RateBits   float64
	PacketBits float64
	// PeakFactor is the burst rate divided by RateBits; must be > 1.
	PeakFactor float64
	// OnLen is the burst length in seconds.
	OnLen float64
}

// Start implements Source.
func (a Adversary) Start(after After, _ *rng.Source, emit Emit) {
	if a.RateBits <= 0 || a.PacketBits <= 0 {
		return
	}
	peak, onLen, offLen := burstShape(a.PeakFactor, a.OnLen)
	fixed := func(v float64) func() float64 { return func() float64 { return v } }
	bursts(after, emit, true,
		fixed(a.PacketBits/(a.RateBits*peak)), fixed(a.PacketBits), fixed(onLen), fixed(offLen))
}

// burstShape fills in the burst defaults (peak 2, 0.5 s ON) and derives the
// OFF length: the duty cycle d satisfies d*peak = 1, so off = on*(peak-1).
func burstShape(peak, on float64) (p, onLen, offLen float64) {
	if peak <= 1 {
		peak = 2
	}
	if on <= 0 {
		on = 0.5
	}
	return peak, on, on * (peak - 1)
}

// bursts is the two-state machine behind OnOff and Adversary: ON periods of
// on() seconds carrying a packet of size() bits every gap() seconds,
// separated by OFF periods of off() seconds. Each function is called at
// the moment its value is needed, which fixes the order of random draws.
func bursts(after After, emit Emit, startOn bool, gap, size, on, off func() float64) {
	var onPhase func(remaining float64)
	var offPhase func()
	onPhase = func(remaining float64) {
		g := gap()
		if g >= remaining {
			after(remaining, offPhase)
			return
		}
		after(g, func() {
			emit(size())
			onPhase(remaining - g)
		})
	}
	offPhase = func() {
		after(off(), func() { onPhase(on()) })
	}
	if startOn {
		onPhase(on())
	} else {
		offPhase()
	}
}

// CBR emits fixed-size packets at a fixed interval. Deterministic; used for
// calibration tests.
type CBR struct {
	RateBits   float64
	PacketBits float64
}

// Start implements Source.
func (c CBR) Start(after After, r *rng.Source, emit Emit) {
	if c.RateBits <= 0 || c.PacketBits <= 0 {
		return
	}
	gap := c.PacketBits / c.RateBits
	var arrive func()
	arrive = func() {
		emit(c.PacketBits)
		after(gap, arrive)
	}
	// Random initial phase avoids lockstep between CBR sources.
	after(r.Float64()*gap, arrive)
}
