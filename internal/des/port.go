package des

import (
	"minroute/internal/graph"
	"minroute/internal/linkcost"
	"minroute/internal/telemetry"
)

// DefaultQueueBits is the default output-queue limit: 512 KB of buffering
// (~500 mean-size packets). The paper's fluid model assumes traffic
// conservation — "the network does not lose any packets" — so the default
// is sized to absorb transient overloads; drop-tail still bounds truly
// pathological backlogs.
const DefaultQueueBits = 512 * 8 * 1024

// Port is the sending side of one directed link: a strict-priority,
// work-conserving transmitter with a lossless control band and a drop-tail
// data band, followed by a fixed propagation pipe. A Port is owned by the
// sending router; delivery invokes the receiver's callback.
//
// In a sharded run (internal/despart) the sender and receiver routers may
// live on different engines. The transmitter half (queues, service events,
// counters) always runs on the sender's engine; the propagation half (pipe,
// delivery events) runs on the receiver's engine rEng. When the two engines
// differ (xshard), finished transmissions are parked in a mailbox instead of
// being scheduled directly, and the coordinator moves them across the
// window barrier (FlipMail, single-threaded) before the receiver drains them
// (DrainInbox, receiver goroutine). Conservative lookahead — Prop is at
// least the window width — guarantees every mailed arrival lands at or after
// the window boundary, so the receiver never sees an event in its past.
// The cross-shard half (xshard, the mailboxes, BindReceiver, FlipMail,
// DrainInbox) serves only the 2-shard run of cmd/mdrbench's des-sf160
// workload and goes with it (ROADMAP item 20).
type Port struct {
	From, To  graph.NodeID
	Capacity  float64 // bits per second
	Prop      float64 // seconds
	eng       *Engine
	deliver   func(*Packet)
	ctrl      fifo
	data      fifo
	dataBits  float64
	limitBits float64
	busy      bool
	down      bool

	// The transmission and propagation completions are pre-bound closures
	// (txDone/propDone) so the per-packet hot path schedules events without
	// allocating. Only one packet transmits at a time (txIt/txService), and
	// the propagation pipe delivers in FIFO order because every packet on a
	// port shares the same Prop delay and the event queue is stable.
	txIt      portItem
	txService float64
	txDone    func()
	pipe      fifo
	propDone  func()

	// Cross-shard state. rEng is the receiver-side engine (== eng unless
	// BindReceiver moved delivery to another shard); txPri/delivPri are the
	// origin priorities of the transmitter and delivery event chains, set by
	// the network from the global link index so equal-time events order
	// identically in serial and sharded runs. mailIn collects finished
	// transmissions during a window; mailOut is the previous window's batch
	// awaiting DrainInbox.
	rEng     *Engine
	txPri    uint64
	delivPri uint64
	xshard   bool
	mailIn   []mailEntry
	mailOut  []mailEntry

	// Estimator, when non-nil, receives (sojourn, service) observations for
	// every transmitted data packet (the PA-style online estimator input).
	Estimator *linkcost.OnlineEstimator

	// Probe, when non-nil, instruments the data band: enqueue events plus
	// queue-depth samples, transmitted bits, and failure losses. Nil (the
	// default) keeps the hot path at one branch per site and zero
	// allocations — the telemetry-guard benchmark pins that.
	Probe *telemetry.LinkProbe

	// Counters for validation and reporting. The Data* pair counts only
	// data-band packets; routers snapshot them to derive windowed flow
	// rates over arbitrary (Ts, Tl) horizons.
	SentPackets    int64
	SentBits       float64
	DataPackets    int64
	DataBits       float64
	DroppedPackets int64
	DroppedBits    float64
	// lostTx/lostRx count data packets the port had accepted ownership of
	// but lost to a link failure: lostTx on the sender side (queued at
	// SetDown or mid-transmission), lostRx on the receiver side (propagating
	// when the failure hit). Send rejections are not counted — ownership
	// stays with the caller. The split keeps each counter single-writer in a
	// sharded run; LostData sums them for the conservation oracle.
	lostTx int64
	lostRx int64
}

type portItem struct {
	pkt *Packet
	enq float64
}

// mailEntry is one finished transmission awaiting cross-shard delivery: the
// packet and its absolute arrival time (transmission end + Prop).
type mailEntry struct {
	at  float64
	pkt *Packet
}

// fifo is a head-indexed queue that reuses its backing array: draining and
// refilling — the common cycle of a lightly loaded port — never reallocates.
type fifo struct {
	items []portItem
	head  int
}

func (f *fifo) push(it portItem) { f.items = append(f.items, it) }
func (f *fifo) empty() bool      { return f.head >= len(f.items) }
func (f *fifo) len() int         { return len(f.items) - f.head }
func (f *fifo) pop() portItem {
	it := f.items[f.head]
	f.items[f.head] = portItem{} // release the packet reference
	f.head++
	if f.head == len(f.items) {
		// Empty: rewind into the same backing array.
		f.items = f.items[:0]
		f.head = 0
	} else if f.head > 64 && f.head > len(f.items)/2 {
		// Compact in place so the dead prefix cannot grow without bound.
		n := copy(f.items, f.items[f.head:])
		for i := n; i < len(f.items); i++ {
			f.items[i] = portItem{}
		}
		f.items = f.items[:n]
		f.head = 0
	}
	return it
}

func (f *fifo) clear() {
	for i := f.head; i < len(f.items); i++ {
		f.items[i] = portItem{}
	}
	f.items = f.items[:0]
	f.head = 0
}

// NewPort builds the sending side of link l. queueBits limits the data band
// (control is unbounded and lossless); deliver is invoked at the receiver
// after transmission plus propagation.
func NewPort(eng *Engine, l *graph.Link, queueBits float64, deliver func(*Packet)) *Port {
	if deliver == nil {
		panic("des: NewPort with nil deliver")
	}
	if queueBits <= 0 {
		queueBits = DefaultQueueBits
	}
	p := &Port{
		From:      l.From,
		To:        l.To,
		Capacity:  l.Capacity,
		Prop:      l.PropDelay,
		eng:       eng,
		rEng:      eng,
		txPri:     PriHarness,
		delivPri:  PriHarness,
		deliver:   deliver,
		limitBits: queueBits,
	}
	p.txDone = p.finishTransmission
	p.propDone = p.deliverNext
	return p
}

// SetPris pins the origin priorities of the port's transmitter and delivery
// event chains. The network derives them from the global link index
// (PriLinkTx/PriLinkDeliver) so equal-time link events order identically
// whether the run is serial or sharded.
func (p *Port) SetPris(txPri, delivPri uint64) {
	p.txPri, p.delivPri = txPri, delivPri
}

// BindReceiver moves the port's delivery side to another engine: finished
// transmissions are parked in the mailbox instead of scheduled, and the
// shard coordinator carries them across the window barrier. Binding the
// port's own engine restores direct in-engine delivery.
func (p *Port) BindReceiver(rEng *Engine) {
	p.rEng = rEng
	p.xshard = rEng != p.eng
}

// FlipMail publishes the window's finished transmissions to the receiver.
// The coordinator calls it inside the barrier (single-threaded), which is
// the only moment both mailbox halves may be touched by one goroutine.
func (p *Port) FlipMail() {
	p.mailIn, p.mailOut = p.mailOut[:0], p.mailIn
}

// DrainInbox schedules the published mailbox batch on the receiver engine.
// The receiver's shard goroutine calls it at window start, after the
// barrier, in the order they were mailed, which the FIFO pipe needs;
// equal-time arrivals across ports order by delivery priority. Lookahead
// guarantees every entry's arrival time is at or after the receiver's
// clock; Schedule's past check enforces that loudly.
func (p *Port) DrainInbox() {
	for i := range p.mailOut {
		m := &p.mailOut[i]
		p.pipe.push(portItem{pkt: m.pkt})
		p.rEng.SchedulePri(m.at, p.delivPri, p.propDone)
		m.pkt = nil
	}
	p.mailOut = p.mailOut[:0]
}

// Send enqueues pkt for transmission. It reports false when the packet was
// dropped (data-band overflow or link down). Control packets are never
// dropped while the link is up.
//
// Ownership: on true the port owns pkt until delivery (or loss); on false
// ownership stays with the caller, who may recycle it via Engine.FreePacket.
func (p *Port) Send(pkt *Packet) bool {
	if p.down {
		p.DroppedPackets++
		p.DroppedBits += pkt.Bits
		return false
	}
	it := portItem{pkt: pkt, enq: p.eng.Now()}
	if pkt.IsControl() {
		p.ctrl.push(it)
	} else {
		if p.dataBits+pkt.Bits > p.limitBits {
			p.DroppedPackets++
			p.DroppedBits += pkt.Bits
			return false
		}
		p.data.push(it)
		p.dataBits += pkt.Bits
		if p.Probe != nil {
			p.Probe.Enqueue(it.enq, int32(pkt.FlowID), uint32(pkt.Serial), pkt.Dst, p.dataBits)
		}
	}
	if !p.busy {
		p.startNext()
	}
	return true
}

func (p *Port) startNext() {
	var it portItem
	switch {
	case !p.ctrl.empty():
		it = p.ctrl.pop()
	case !p.data.empty():
		it = p.data.pop()
		p.dataBits -= it.pkt.Bits
	default:
		p.busy = false
		return
	}
	p.busy = true
	p.txIt = it
	p.txService = it.pkt.Bits / p.Capacity
	p.eng.AfterPri(p.txService, p.txPri, p.txDone)
}

func (p *Port) finishTransmission() {
	it := p.txIt
	p.txIt = portItem{} // drop the reference; the pipe owns it from here
	if p.down {
		// The link failed mid-transmission; the packet is lost and the
		// transmitter stays idle until the link recovers.
		if !it.pkt.IsControl() {
			p.lostTx++
			if p.Probe != nil {
				p.Probe.LostTx(p.eng.Now(), int32(it.pkt.FlowID), uint32(it.pkt.Serial), it.pkt.Dst)
			}
		}
		p.eng.FreePacket(it.pkt)
		p.busy = false
		return
	}
	pkt := it.pkt
	p.SentPackets++
	p.SentBits += pkt.Bits
	if !pkt.IsControl() {
		p.DataPackets++
		p.DataBits += pkt.Bits
		if p.Estimator != nil {
			p.Estimator.Observe(p.eng.Now()-it.enq, p.txService)
		}
		if p.Probe != nil {
			p.Probe.Transmit(p.eng.Now(), pkt.Bits)
		}
	}
	if p.xshard {
		p.mailIn = append(p.mailIn, mailEntry{at: p.eng.Now() + p.Prop, pkt: pkt})
	} else {
		p.pipe.push(portItem{pkt: pkt})
		p.rEng.SchedulePri(p.eng.Now()+p.Prop, p.delivPri, p.propDone)
	}
	p.startNext()
}

// deliverNext completes the propagation of the oldest in-flight packet. It
// runs on the receiver engine. Packets that were in the pipe when the link
// failed are lost at arrival time (the down check happens when the
// propagation event fires, exactly as the previous per-packet closure did).
func (p *Port) deliverNext() {
	it := p.pipe.pop()
	if p.down {
		if !it.pkt.IsControl() {
			p.lostRx++
			if p.Probe != nil {
				p.Probe.LostRx(p.rEng.Now(), int32(it.pkt.FlowID), uint32(it.pkt.Serial), it.pkt.Dst)
			}
		}
		p.rEng.FreePacket(it.pkt)
		return
	}
	p.deliver(it.pkt)
}

// SetDown takes the link down (queued packets are lost) or brings it back
// up. Bringing an up link up, or a down link down, is a no-op.
func (p *Port) SetDown(down bool) {
	if p.down == down {
		return
	}
	p.down = down
	if down {
		for !p.ctrl.empty() {
			it := p.ctrl.pop()
			p.DroppedPackets++
			p.DroppedBits += it.pkt.Bits
			p.eng.FreePacket(it.pkt)
		}
		for !p.data.empty() {
			it := p.data.pop()
			p.DroppedPackets++
			p.DroppedBits += it.pkt.Bits
			p.lostTx++
			if p.Probe != nil {
				p.Probe.LostTx(p.eng.Now(), int32(it.pkt.FlowID), uint32(it.pkt.Serial), it.pkt.Dst)
			}
			p.eng.FreePacket(it.pkt)
		}
		p.ctrl.clear()
		p.data.clear()
		p.dataBits = 0
	}
}

// Down reports whether the link is failed.
func (p *Port) Down() bool { return p.down }

// QueuedDataBits returns the data-band backlog, excluding the packet in
// transmission.
func (p *Port) QueuedDataBits() float64 { return p.dataBits }

// QueuedPackets returns the number of queued packets in both bands,
// excluding the packet in transmission.
func (p *Port) QueuedPackets() int { return p.ctrl.len() + p.data.len() }

// Busy reports whether a transmission is in progress.
func (p *Port) Busy() bool { return p.busy }

// LostData returns the data packets the port accepted ownership of but lost
// to link failures, summed over the sender and receiver sides. The
// conservation oracle reads it at barriers (or in-engine, serially), where
// both counters are quiescent.
func (p *Port) LostData() int64 { return p.lostTx + p.lostRx }

// InFlightDataPackets counts the data packets the port currently owns:
// queued in the data band, in transmission, propagating in the pipe, and
// parked in the cross-shard mailbox. The conservation oracle uses it to
// balance offered traffic against delivered, dropped, and still-travelling
// packets; in a sharded run it must only be called at barriers.
func (p *Port) InFlightDataPackets() int {
	n := p.data.len()
	if p.txIt.pkt != nil && !p.txIt.pkt.IsControl() {
		n++
	}
	for i := p.pipe.head; i < len(p.pipe.items); i++ {
		if !p.pipe.items[i].pkt.IsControl() {
			n++
		}
	}
	for i := range p.mailIn {
		if !p.mailIn[i].pkt.IsControl() {
			n++
		}
	}
	for i := range p.mailOut {
		if !p.mailOut[i].pkt.IsControl() {
			n++
		}
	}
	return n
}
