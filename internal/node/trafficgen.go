package node

import (
	"fmt"
	"sync"
	"sync/atomic"

	"minroute/internal/graph"
	"minroute/internal/rng"
	"minroute/internal/topo"
	"minroute/internal/traffic"
	"minroute/internal/transport"
)

// TrafficModel names the internal/traffic source a TrafficGen hosts on the
// mesh clock. The simulator runs the very same sources, so a live run and
// a DES run of one scenario and seed offer the same arrival process.
type TrafficModel string

const (
	// TrafficCBR emits fixed-size packets at fixed intervals with a
	// random initial phase per subflow (traffic.CBR).
	TrafficCBR TrafficModel = "cbr"
	// TrafficPoisson draws exponential gaps and exponential sizes
	// (traffic.Poisson).
	TrafficPoisson TrafficModel = "poisson"
	// TrafficOnOff alternates exponential ON bursts at PeakFactor times
	// the average rate with OFF periods sized for the duty cycle
	// (traffic.OnOff).
	TrafficOnOff TrafficModel = "onoff"
	// TrafficAdversary bursts every subflow of every commodity in lockstep
	// — same phase, no jitter — at PeakFactor times the average rate, so
	// entire burst fronts land on the same buckets at the same instant
	// (traffic.Adversary).
	TrafficAdversary TrafficModel = "adversary"
)

// TrafficConfig parameterizes a live traffic run.
type TrafficConfig struct {
	// Model is the arrival process (default TrafficCBR).
	Model TrafficModel
	// Flows are the offered commodities (topo's r_ij demand shape).
	Flows []topo.Flow
	// Subflows splits each commodity into this many sticky flows (default
	// 16): each subflow hashes to one path and keeps it, so the realized
	// per-hop split converges on the bucket shares — and hence on phi —
	// as the subflow population grows.
	Subflows int
	// PacketBits is the fixed (cbr/adversary) or mean (poisson/onoff)
	// packet size in bits (default 8192).
	PacketBits float64
	// PeakFactor and MeanOn tune the onoff and adversary bursts (zero
	// selects the traffic package's defaults, 2 and 0.5).
	PeakFactor float64
	MeanOn     float64
	// Seed feeds the per-subflow rng streams.
	Seed uint64
}

func (c TrafficConfig) withDefaults() TrafficConfig {
	if c.Model == "" {
		c.Model = TrafficCBR
	}
	if c.Subflows <= 0 {
		c.Subflows = 16
	}
	if c.PacketBits <= 0 {
		c.PacketBits = 8192
	}
	return c
}

// source builds the configured model at one subflow's rate (nil for an
// unknown model name).
func (c TrafficConfig) source(rate float64) traffic.Source {
	switch c.Model {
	case TrafficCBR:
		return traffic.CBR{RateBits: rate, PacketBits: c.PacketBits}
	case TrafficPoisson:
		return traffic.Poisson{RateBits: rate, MeanPacketBits: c.PacketBits}
	case TrafficOnOff:
		return traffic.OnOff{RateBits: rate, MeanPacketBits: c.PacketBits, PeakFactor: c.PeakFactor, MeanOn: c.MeanOn}
	case TrafficAdversary:
		return traffic.Adversary{RateBits: rate, PacketBits: c.PacketBits, PeakFactor: c.PeakFactor, OnLen: c.MeanOn}
	}
	return nil
}

// FlowID composes the data-plane flow ID of one commodity subflow:
// commodity index in the high word, subflow in the low. The encoding is
// public so cross-validation can map sink flows back to commodities.
func FlowID(commodity, sub int) uint64 {
	return uint64(commodity)<<32 | uint64(uint32(sub))
}

// TrafficGen replays a traffic scenario against a live mesh's data
// plane: per-subflow arrival timers on the mesh clock, packets entering
// at each commodity's source forwarder. Start arms the timers; Stop
// quiesces them; Report folds the sinks' flow stats back per commodity.
type TrafficGen struct {
	mesh *Mesh
	cfg  TrafficConfig
	clk  transport.Clock

	// offered counts originated packets and bits per commodity; written
	// from timer callbacks, read by Report.
	offered     []int64
	offeredBits []int64

	mu      sync.Mutex
	timers  map[uint64]transport.Timer // live per-subflow timers by FlowID
	stopped bool
}

// NewTrafficGen builds a generator over m (whose data plane must be
// enabled). It does not start sending.
func NewTrafficGen(m *Mesh, cfg TrafficConfig) (*TrafficGen, error) {
	cfg = cfg.withDefaults()
	if cfg.source(0) == nil {
		return nil, fmt.Errorf("node: unknown traffic model %q", cfg.Model)
	}
	for _, f := range cfg.Flows {
		if int(f.Src) >= len(m.Nodes) || int(f.Dst) >= len(m.Nodes) {
			return nil, fmt.Errorf("node: flow %s outside mesh", f.Name)
		}
		if m.Nodes[f.Src].DataPlane() == nil {
			return nil, fmt.Errorf("node: traffic needs MeshConfig.Data (node %d has no forwarder)", f.Src)
		}
	}
	return &TrafficGen{
		mesh:        m,
		cfg:         cfg,
		clk:         m.Nodes[0].clk,
		offered:     make([]int64, len(cfg.Flows)),
		offeredBits: make([]int64, len(cfg.Flows)),
		timers:      make(map[uint64]transport.Timer),
	}, nil
}

// Start arms every subflow's first arrival: each subflow is one
// traffic.Source scheduling through arm and emitting through send.
func (g *TrafficGen) Start() {
	for ci, f := range g.cfg.Flows {
		src := g.cfg.source(f.Rate / float64(g.cfg.Subflows))
		for sub := 0; sub < g.cfg.Subflows; sub++ {
			id := FlowID(ci, sub)
			src.Start(
				func(d float64, fn func()) { g.arm(id, d, fn) },
				rng.New(g.cfg.Seed).Split(id),
				func(bits float64) { g.send(ci, f, id, bits) })
		}
	}
}

// arm schedules fn after d seconds under the subflow's timer slot,
// unless the generator has stopped. Each callback re-arms through here,
// so Stop wins any race with an in-flight firing: the firing runs, but
// its re-arm is refused.
func (g *TrafficGen) arm(id uint64, d float64, fn func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.stopped {
		return
	}
	g.timers[id] = g.clk.AfterFunc(d, fn)
}

// send originates one packet on commodity ci's subflow.
func (g *TrafficGen) send(ci int, f topo.Flow, id uint64, bits float64) {
	if bits < 1 {
		bits = 1
	}
	atomic.AddInt64(&g.offered[ci], 1)
	atomic.AddInt64(&g.offeredBits[ci], int64(bits))
	// Best effort by design: a noroute during convergence is the drop
	// counter's business, not the generator's.
	_ = g.mesh.Nodes[f.Src].DataPlane().Send(f.Dst, id, uint32(bits))
}

// Stop quiesces the generator: no timer fires or re-arms after it
// returns the lock. Idempotent.
func (g *TrafficGen) Stop() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.stopped = true
	// Ascending flow IDs: FlowID orders by (commodity, subflow).
	for ci := range g.cfg.Flows {
		for sub := 0; sub < g.cfg.Subflows; sub++ {
			if tm, ok := g.timers[FlowID(ci, sub)]; ok {
				tm.Stop()
			}
		}
	}
	clear(g.timers)
}

// CommodityReport is one commodity's end-to-end accounting: offered at
// the source against delivered (with delays) at the sink.
type CommodityReport struct {
	Name     string       `json:"name"`
	Src      graph.NodeID `json:"src"`
	Dst      graph.NodeID `json:"dst"`
	Offered  int64        `json:"offered_packets"`
	Bits     int64        `json:"offered_bits"`
	Deliv    int64        `json:"delivered_packets"`
	DelivPct float64      `json:"delivered_pct"`
	// MeanDelayMs and MaxDelayMs aggregate the commodity's subflows,
	// packet-weighted.
	MeanDelayMs float64 `json:"mean_delay_ms"`
	MaxDelayMs  float64 `json:"max_delay_ms"`
}

// TrafficReport aggregates a run.
type TrafficReport struct {
	Model       TrafficModel      `json:"model"`
	Subflows    int               `json:"subflows"`
	Commodities []CommodityReport `json:"commodities"`
	Offered     int64             `json:"offered_packets"`
	Delivered   int64             `json:"delivered_packets"`
	DelivPct    float64           `json:"delivered_pct"`
}

// Report folds each destination forwarder's sink-side flow stats back
// onto the offered commodities. Call after traffic has drained (packets
// in flight when Report runs count as undelivered).
func (g *TrafficGen) Report() TrafficReport {
	rep := TrafficReport{Model: g.cfg.Model, Subflows: g.cfg.Subflows}
	for ci, f := range g.cfg.Flows {
		cr := CommodityReport{
			Name: f.Name, Src: f.Src, Dst: f.Dst,
			Offered: atomic.LoadInt64(&g.offered[ci]),
			Bits:    atomic.LoadInt64(&g.offeredBits[ci]),
		}
		var delaySum float64
		for _, fs := range g.mesh.Nodes[f.Dst].DataPlane().Flows() {
			if fs.FlowID>>32 != uint64(ci) || fs.Src != f.Src {
				continue
			}
			cr.Deliv += fs.Packets
			delaySum += fs.DelaySum
			if ms := fs.MaxDelay * 1e3; ms > cr.MaxDelayMs {
				cr.MaxDelayMs = ms
			}
		}
		if cr.Deliv > 0 {
			cr.MeanDelayMs = delaySum / float64(cr.Deliv) * 1e3
		}
		if cr.Offered > 0 {
			cr.DelivPct = 100 * float64(cr.Deliv) / float64(cr.Offered)
		}
		rep.Offered += cr.Offered
		rep.Delivered += cr.Deliv
		rep.Commodities = append(rep.Commodities, cr)
	}
	if rep.Offered > 0 {
		rep.DelivPct = 100 * float64(rep.Delivered) / float64(rep.Offered)
	}
	return rep
}
