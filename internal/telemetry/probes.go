package telemetry

import "minroute/internal/graph"

// LinkProbe instruments one directed link's data band. The owning des.Port
// holds it behind a single nil check per probe site, so the disabled path
// costs one branch and zero allocations in the packet hot loop.
type LinkProbe struct {
	// Tracer receives the link's pkt_enqueue and pkt_lost events.
	Tracer   *Tracer
	From, To graph.NodeID
	// QueueBits tracks the data-band backlog (bits) sampled at each
	// enqueue, bucketed by simulation time.
	QueueBits *Histogram
	// TxBits totals transmitted data bits (link utilization = TxBits /
	// (capacity * duration)). The port keeps the running total; the
	// network mirrors it in with Set before an export.
	TxBits *Counter
	// LostPkts counts data packets lost to link failures after the port
	// accepted ownership, mirrored in from the port like TxBits.
	LostPkts *Counter
}

// Enqueue records packet pkt of flow accepted into the data band (one hop
// of its path); queuedBits is the backlog including the new packet. The
// histogram sees every packet, the event log the sampled ones.
func (p *LinkProbe) Enqueue(t float64, flow int32, pkt uint32, dst graph.NodeID, queuedBits float64) {
	p.QueueBits.Observe(t, queuedBits)
	p.Tracer.EmitPkt(t, KindPktEnqueue, p.From, p.To, dst, flow, pkt, queuedBits)
}

// Lost records a data packet the port had accepted but lost to a link
// failure: queued at SetDown, mid-transmission, or propagating.
func (p *LinkProbe) Lost(t float64, flow int32, pkt uint32, dst graph.NodeID) {
	p.Tracer.Emit(Event{T: t, Kind: KindPktLost, Router: p.From, Peer: p.To, Dst: dst, Flow: flow, Pkt: pkt, Value: 1})
}

// NodeProbes instruments the control plane of router.Nodes. One instance
// is shared by every node of a simulation.
type NodeProbes struct {
	Tracer *Tracer
	// ActiveDur receives each completed ACTIVE phase's duration.
	ActiveDur *Histogram
	// Converge closes a convergence episode on the first routing-table
	// commit after a topology change.
	Converge *ConvergeMeter
}
