package telemetry

import "minroute/internal/graph"

// LinkProbe instruments one directed link's data band. The owning des.Port
// holds it behind a single nil check per probe site, so the disabled path
// costs one branch and zero allocations in the packet hot loop.
//
// In a sharded run the probe has two writer sides: the transmitter half
// lives on the sender's shard (Enqueue, Transmit, LostTx emit through
// Tracer) and the delivery half on the receiver's (LostRx emits through
// RxTracer). The LostPkts counter keeps the sides apart in slots 0 (tx)
// and 1 (rx). The split, like Tracer.Fork, stays only while
// core.Options.Shards does (ROADMAP item 20).
type LinkProbe struct {
	Tracer *Tracer
	// RxTracer is the receiver-shard tracer for delivery-side events; nil
	// (the serial case) falls back to Tracer.
	RxTracer *Tracer
	From, To graph.NodeID
	// QueueBits tracks the data-band backlog (bits) sampled at each
	// enqueue, bucketed by simulation time.
	QueueBits *Histogram
	// TxBits totals transmitted data bits (link utilization = TxBits /
	// (capacity * duration)).
	TxBits *Counter
	// LostPkts counts data packets lost to link failures after the port
	// accepted ownership: slot 0 sender-side losses, slot 1 receiver-side.
	LostPkts *Counter
}

// Enqueue records packet pkt of flow accepted into the data band (one hop
// of its path); queuedBits is the backlog including the new packet.
func (p *LinkProbe) Enqueue(t float64, flow int32, pkt uint32, dst graph.NodeID, queuedBits float64) {
	p.QueueBits.Observe(t, queuedBits)
	p.Tracer.Emit(Event{T: t, Kind: KindPktEnqueue, Router: p.From, Peer: p.To, Dst: dst, Flow: flow, Pkt: pkt, Value: queuedBits})
}

// Transmit records a completed data transmission of the given size.
func (p *LinkProbe) Transmit(t, bits float64) {
	p.TxBits.Add(bits)
}

// LostTx records a data packet lost on the sender side of a failed link
// (queued at SetDown or mid-transmission).
func (p *LinkProbe) LostTx(t float64, flow int32, pkt uint32, dst graph.NodeID) {
	p.LostPkts.AddSlot(0, 1)
	p.Tracer.Emit(Event{T: t, Kind: KindPktLost, Router: p.From, Peer: p.To, Dst: dst, Flow: flow, Pkt: pkt, Value: 1})
}

// LostRx records a data packet lost on the receiver side (propagating when
// the failure hit), emitting through the receiver shard's tracer.
func (p *LinkProbe) LostRx(t float64, flow int32, pkt uint32, dst graph.NodeID) {
	p.LostPkts.AddSlot(1, 1)
	tr := p.RxTracer
	if tr == nil {
		tr = p.Tracer
	}
	tr.Emit(Event{T: t, Kind: KindPktLost, Router: p.From, Peer: p.To, Dst: dst, Flow: flow, Pkt: pkt, Value: 1})
}

// NodeProbes instruments the control plane of router.Nodes. One instance
// is shared by every node of a serial simulation; a sharded run hands each
// shard's nodes a WithTracer clone, so the slotted instruments stay shared
// while events flow through the owning shard's tracer (for as long as
// core.Options.Shards exists; see Tracer.Fork).
type NodeProbes struct {
	Tracer *Tracer
	// ActiveDur receives each completed ACTIVE phase's duration, slotted by
	// router ID.
	ActiveDur *Histogram
	// Converge closes a convergence episode on each routing-table commit,
	// slotted by router ID.
	Converge *ConvergeMeter
}

// WithTracer returns a copy of the probe set emitting through tr, sharing
// the slotted instruments with the original.
func (p *NodeProbes) WithTracer(tr *Tracer) *NodeProbes {
	if p == nil {
		return nil
	}
	q := *p
	q.Tracer = tr
	return &q
}
