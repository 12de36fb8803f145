package des

import "minroute/internal/graph"

// Packet is the unit of traffic. Data packets carry FlowID >= 0 and a nil
// Control payload; routing-protocol packets carry Control != nil and travel
// in the lossless priority band.
type Packet struct {
	// Serial uniquely identifies a data packet: core packs the flow above a
	// per-flow count starting at 1, and telemetry events carry the low 32
	// bits as Event.Pkt. Zero on control packets.
	Serial uint64
	// FlowID indexes the experiment's flow table; -1 for control traffic.
	FlowID int
	// Src and Dst are the origin and final destination routers.
	Src, Dst graph.NodeID
	// Bits is the packet length including headers.
	Bits float64
	// Created is the time the packet entered the network.
	Created float64
	// Hops counts forwarding steps, used to catch forwarding loops.
	Hops int
	// Control is an opaque protocol payload (e.g. an LSU message).
	Control any
}

// IsControl reports whether the packet belongs to the control band.
func (p *Packet) IsControl() bool { return p.Control != nil }

// PacketPool is a free list of packet records. A simulation churns through
// one packet per arrival; recycling them removes the dominant allocation of
// the DES hot path. The pool is not safe for concurrent use — each Engine
// owns one, and an engine is always driven by a single goroutine.
type PacketPool struct {
	free []*Packet
}

// Get returns a packet record. The caller must overwrite every field (e.g.
// with `*pkt = Packet{...}`): recycled records keep stale data by design,
// so the reset cost is paid only for the fields actually used.
func (pp *PacketPool) Get() *Packet {
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		return p
	}
	return new(Packet)
}

// Put recycles a packet whose lifetime has ended. The caller must not keep
// the pointer. Control payloads are released so the pool never pins them.
func (pp *PacketPool) Put(p *Packet) {
	if p == nil {
		return
	}
	p.Control = nil
	pp.free = append(pp.free, p)
}
