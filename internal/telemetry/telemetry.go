// Package telemetry is the simulation's instrumentation layer: a
// deterministic structured event bus plus a metrics registry, with JSONL,
// Chrome-trace (catapult), and plain-text exporters.
//
// Determinism is the design constraint everything else bends around. The
// paper harness guarantees byte-identical figures at any worker count, so
// telemetry must add no entropy: events are stamped with simulation time
// and a schedule-independent emission serial (never the wall clock), each
// simulation owns a private Tracer with one writer, the simulation's event
// engine (no cross-simulation sharing, no locks), and all exporters iterate
// in sorted orders with canonical float formatting. The serial is the
// tracer's emission count, so on the DES the exported log is in emission
// order, which is causal order; Events restamps Seq with the merge rank.
// A run's telemetry artifacts are therefore golden-testable — the JSONL
// of a figure regeneration hashes identically at -workers=1 and
// -workers=8.
//
// Events go to one bounded ring per band, shared by every router: the
// control band (MPDA phases, LSUs, table commits, IH/AH steps, faults, peer
// sessions, ARQ) and the data band (packet events). Packet volume therefore
// never evicts the control plane, and each band counts its own drops; a
// band that wraps keeps its newest events overall, not per router. The
// two kinds every hop of every packet emits, pkt_enqueue and pkt_deliver,
// are sampled by packet number, one packet in 32, so a traced packet keeps
// its whole path; losses and drops are always recorded. The metrics
// snapshot states the rate and both bands' drop counts.
//
// The disabled path is a first-class citizen: every probe is reachable
// through a single nil check (nil *Tracer, *Counter, *Histogram, ... are
// all safe no-op receivers), so a simulation built without a Capture pays
// one predictable branch per probe site and zero allocations — see
// TestTelemetryDisabledZeroAlloc in internal/des and the telemetry-guard
// Makefile target.
package telemetry

import (
	"cmp"
	"fmt"
	"slices"

	"minroute/internal/graph"
)

// Kind identifies the type of one traced event. Exporters map kinds to
// names and categories through lookup tables (KindName, kindCats) rather
// than switches, so adding a kind means extending the tables in one place.
type Kind uint8

// Event kinds: MPDA phase transitions, control-plane message flow, routing
// commits, allocation (IH/AH) steps, data-plane packet life cycle, and
// chaos fault markers.
const (
	// KindPhaseActive marks a router entering the ACTIVE phase (it flooded
	// an LSU and is waiting for neighbor ACKs).
	KindPhaseActive Kind = iota
	// KindPhasePassive marks the return to PASSIVE; Value carries the
	// ACTIVE-phase duration in seconds.
	KindPhasePassive
	// KindLSUSend is one LSU transmission; Peer is the neighbor, Value the
	// wire size in bits.
	KindLSUSend
	// KindLSURecv is one LSU arrival; Peer is the sender, Value the entry
	// count.
	KindLSURecv
	// KindLSUAck is an arrival carrying an ACK credit (subset of recv).
	KindLSUAck
	// KindTableCommit marks a routing-table (MTU) commit; Value is the
	// number of changed entries flooded.
	KindTableCommit
	// KindAllocInit is an IH rebuild of the routing parameters for
	// destination Dst; Value is the allocation spread (see alloc.Spread).
	KindAllocInit
	// KindAllocAdjust is an AH adjustment step for destination Dst.
	KindAllocAdjust
	// KindPktEnqueue is a data packet accepted into a port's data band;
	// Value is the queue depth in bits after the enqueue.
	KindPktEnqueue
	// KindPktDeliver is a data packet arriving at its destination; Value is
	// the end-to-end delay in seconds.
	KindPktDeliver
	// KindPktLost is a data packet the network had accepted but lost to a
	// link failure (mid-transmission, propagating, or flushed at SetDown).
	KindPktLost
	// KindDropNoRoute..KindDropDown are router-level drops, mirroring the
	// router.Node counters.
	KindDropNoRoute
	KindDropHopLimit
	KindDropQueue
	KindDropDown
	// KindFaultStart/Stop bracket injected faults (link failure/restore,
	// crash/restart, cost spikes, control perturbation); Label names the
	// fault.
	KindFaultStart
	KindFaultStop
	// KindPeerUp/KindPeerDown are live-runtime neighbor session
	// transitions (internal/node): handshake completed / dead timer
	// expired or BYE received. Peer is the neighbor; for KindPeerUp,
	// Value carries the configured link cost.
	KindPeerUp
	KindPeerDown
	// KindARQRetransmit is one retransmitted ARQ frame on a live link
	// (internal/transport): Peer is the neighbor, Value the frame's current
	// RTO in seconds, and Label is "fast" for duplicate-SACK-triggered
	// retransmissions or "rto" for timer expiries.
	KindARQRetransmit
	// KindARQRTOUpdate is an RTT sample moving a live link's retransmission
	// estimator; Peer is the neighbor, Value the new RTO in seconds.
	KindARQRTOUpdate

	numKinds
)

// kindNames is the canonical wire name per kind (JSONL "kind" field,
// Chrome-trace event name).
var kindNames = [numKinds]string{
	KindPhaseActive:   "phase_active",
	KindPhasePassive:  "phase_passive",
	KindLSUSend:       "lsu_send",
	KindLSURecv:       "lsu_recv",
	KindLSUAck:        "lsu_ack",
	KindTableCommit:   "table_commit",
	KindAllocInit:     "alloc_init",
	KindAllocAdjust:   "alloc_adjust",
	KindPktEnqueue:    "pkt_enqueue",
	KindPktDeliver:    "pkt_deliver",
	KindPktLost:       "pkt_lost",
	KindDropNoRoute:   "drop_noroute",
	KindDropHopLimit:  "drop_hoplimit",
	KindDropQueue:     "drop_queue",
	KindDropDown:      "drop_down",
	KindFaultStart:    "fault_start",
	KindFaultStop:     "fault_stop",
	KindPeerUp:        "peer_up",
	KindPeerDown:      "peer_down",
	KindARQRetransmit: "arq_retransmit",
	KindARQRTOUpdate:  "arq_rto_update",
}

// kindCats groups kinds into Chrome-trace categories.
var kindCats = [numKinds]string{
	KindPhaseActive:   "mpda",
	KindPhasePassive:  "mpda",
	KindLSUSend:       "control",
	KindLSURecv:       "control",
	KindLSUAck:        "control",
	KindTableCommit:   "route",
	KindAllocInit:     "route",
	KindAllocAdjust:   "route",
	KindPktEnqueue:    "data",
	KindPktDeliver:    "data",
	KindPktLost:       "data",
	KindDropNoRoute:   "data",
	KindDropHopLimit:  "data",
	KindDropQueue:     "data",
	KindDropDown:      "data",
	KindFaultStart:    "chaos",
	KindFaultStop:     "chaos",
	KindPeerUp:        "session",
	KindPeerDown:      "session",
	KindARQRetransmit: "transport",
	KindARQRTOUpdate:  "transport",
}

// String returns the canonical wire name.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// NumKinds returns the number of defined kinds (for iteration in tools).
func NumKinds() int { return int(numKinds) }

// Category returns the kind's trace category: mpda, control, route, data,
// chaos, session, or transport. Exporters and renderers color and group
// by it.
func (k Kind) Category() string {
	if k < numKinds {
		return kindCats[k]
	}
	return "unknown"
}

// kindByName inverts kindNames for the JSONL reader and mdrtrace filters.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		m[kindNames[k]] = k
	}
	return m
}()

// KindByName resolves a wire name, reporting whether it is defined.
func KindByName(name string) (Kind, bool) {
	k, ok := kindByName[name]
	return k, ok
}

// Event is one traced span edge or instant. T is simulation time in
// seconds; Seq totally orders events sharing a timestamp (many do — the
// DES fires whole causal chains at one instant). Inside the rings Seq is
// the tracer's emission count; Events replaces it with the merge rank, so
// consumers always see Seq contiguous from 1.
// Fields that do not apply to a kind hold graph.None / -1.
type Event struct {
	T      float64
	Seq    uint64
	Kind   Kind
	Router graph.NodeID // emitting router; graph.None for network-scope events
	Peer   graph.NodeID // link peer or LSU neighbor
	Dst    graph.NodeID // packet or routing-table destination
	Flow   int32        // flow ID; -1 for control traffic
	// Pkt numbers a data packet within its flow (the low 32 bits of
	// des.Packet.Serial, counting from 1), so (Flow, Pkt) follows one packet
	// across its enqueue, deliver, drop and loss events; 0 on every other
	// event. It fills the padding after Flow: Event stays 64 bytes.
	Pkt   uint32
	Value float64 // kind-specific magnitude (bits, seconds, entries, ...)
	Label string  // free-form tag (fault names)
}

// NewEvent returns an event at time t with the non-applicable attribute
// fields pre-set to their "absent" sentinels.
func NewEvent(t float64, k Kind, router graph.NodeID) Event {
	return Event{T: t, Kind: k, Router: router, Peer: graph.None, Dst: graph.None, Flow: -1}
}

// DefaultRingCap is each router's share of a band's ring, used by
// NewCapture: a band of a tracer for n routers holds (n+1)*DefaultRingCap
// events, however they spread over the routers. A Quick figure's routers
// record a few thousand control-plane events each, so the control band
// keeps the whole run; the data band holds the sampled packets and may
// wrap on longer runs (surfaced per band by Truncation and the drop
// counters).
const DefaultRingCap = 8192

// band is the ring an event kind lands in. The tracer has one ring per
// band, so packet volume in the data band can never evict a control-plane
// event (phase, LSU, table commit, IH/AH, fault, peer, ARQ).
type band uint8

const (
	bandControl band = iota
	bandData
	numBands
)

// bandNames names each band in truncation warnings and drop counters.
var bandNames = [numBands]string{bandControl: "control", bandData: "data"}

// kindBands maps each kind to its band: the data category is the data
// band, every other category the control band.
var kindBands = func() (b [numKinds]band) {
	for k := range b {
		if kindCats[k] == "data" {
			b[k] = bandData
		}
	}
	return b
}()

// pktSampleEvery is the data band's sample rate. The two kinds every hop
// of every packet emits, pkt_enqueue and pkt_deliver, are recorded only for
// packets whose number within their flow is a multiple of it, so a traced
// packet keeps its whole path. Losses and drops are never sampled. At 32 a
// Quick figure's data band stays inside its rings and Quick fig14's MP run
// still traces over a thousand delivered paths (core's
// TestTracedPathsLoopFreeInPractice); 64 leaves it under that.
const pktSampleEvery = 32

// sampledOut reports whether the data-band sample skips event kind k of
// packet pkt.
func sampledOut(k Kind, pkt uint32) bool {
	return (k == KindPktEnqueue || k == KindPktDeliver) && pkt%pktSampleEvery != 0
}

// record is an Event as a ring holds it: the same fields, except that the
// label is an index into the tracer's label table (0 for none,
// else the table position plus one). Holding no pointer keeps the rings
// out of the garbage collector's scan; labels are rare (fault names, the
// ARQ's retransmission causes), so the table stays short.
type record struct {
	T      float64
	Seq    uint64
	Value  float64
	Router graph.NodeID
	Peer   graph.NodeID
	Dst    graph.NodeID
	Flow   int32
	Pkt    uint32
	label  uint32
	Kind   Kind
}

// compareRecords orders records by (T, Seq), the merge key; Seq never
// repeats within a tracer.
func compareRecords(a, b *record) int {
	if a.T != b.T {
		if a.T < b.T {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// ring is one bounded event buffer: append until full, then overwrite the
// oldest entry. Entries stay in emission order: the logical sequence is
// buf[head:] followed by buf[:head].
type ring struct {
	cap     int
	buf     []record
	head    int
	dropped uint64
}

// slot returns the storage of the next record: a new entry while the ring
// is filling, else the oldest one, which it counts as dropped. The caller
// writes every field.
func (r *ring) slot() *record {
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, record{})
		return &r.buf[len(r.buf)-1]
	}
	rec := &r.buf[r.head]
	r.head++
	if r.head == r.cap {
		r.head = 0
	}
	r.dropped++
	return rec
}

// run returns the retained records in (T, Seq) order, as two segments to
// read one after the other; a is empty only when the ring is. Emission
// order is that order whenever the emitter's clock never steps back, as on
// the DES, and then run returns the ring's own storage: the oldest entries
// up to the end of the buffer, then the wrapped-around rest. Otherwise (a
// live node's wall-clock stamps) it returns a sorted copy.
func (r *ring) run() (a, b []record) {
	a, b = r.buf[r.head:], r.buf[:r.head]
	byKey := func(x, y record) int { return compareRecords(&x, &y) }
	if slices.IsSortedFunc(a, byKey) && slices.IsSortedFunc(b, byKey) &&
		(len(a) == 0 || len(b) == 0 || compareRecords(&a[len(a)-1], &b[0]) <= 0) {
		return a, b
	}
	a = slices.Concat(a, b)
	slices.SortFunc(a, byKey)
	return a, nil
}

// Tracer is the event bus of one simulation: one bounded ring per band,
// shared by every router and the network scope. It has one writer at a
// time — a simulation's event engine, or the live runtime's emitters one
// by one behind node.Trace's mutex — so the rings need no locks of their
// own, and concurrency across simulations is safe because each owns a
// private Tracer. A nil *Tracer is a valid no-op sink.
type Tracer struct {
	rings [numBands]ring
	count uint64
	// labels is the table the rings' label indices point into. Emit fills
	// it, so it shares the rings' single-writer rule.
	labels []string
}

// NewTracer builds a tracer for numRouters routers, each band's ring
// holding (numRouters+1)*ringCap events (ringCap <= 0 selects
// DefaultRingCap): a share per router and one for the network scope,
// pooled, so a busy router can use what a quiet one leaves. A ring grows
// as it fills, up to that cap.
func NewTracer(numRouters, ringCap int) *Tracer {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	if numRouters < 0 {
		numRouters = 0
	}
	t := &Tracer{}
	for b := range t.rings {
		t.rings[b].cap = (numRouters + 1) * ringCap
	}
	return t
}

// Emit records ev in its band's ring, stamped with the emission count,
// unless the data-band sample skips it.
func (t *Tracer) Emit(ev Event) {
	if t == nil || sampledOut(ev.Kind, ev.Pkt) {
		return
	}
	t.count++
	rec := t.rings[kindBands[ev.Kind]].slot()
	*rec = record{
		T: ev.T, Seq: t.count, Value: ev.Value,
		Router: ev.Router, Peer: ev.Peer, Dst: ev.Dst, Flow: ev.Flow, Pkt: ev.Pkt, Kind: ev.Kind,
	}
	if ev.Label != "" {
		rec.label = t.intern(ev.Label)
	}
}

// EmitPkt is Emit for the per-hop packet kinds (pkt_enqueue,
// pkt_deliver), which the data-plane hot loop emits by field: a packet the
// sample skips costs one test, and a kept one is written straight into its
// ring slot with no Event built on the way.
func (t *Tracer) EmitPkt(at float64, k Kind, router, peer, dst graph.NodeID, flow int32, pkt uint32, value float64) {
	if t == nil || sampledOut(k, pkt) {
		return
	}
	t.count++
	*t.rings[bandData].slot() = record{
		T: at, Seq: t.count, Value: value,
		Router: router, Peer: peer, Dst: dst, Flow: flow, Pkt: pkt, Kind: k,
	}
}

// intern returns label's index in the label table plus one, adding it on
// first sight. A scan suffices: a run has a handful of distinct labels
// (one per fault site, and the ARQ's two), and few events carry one.
func (t *Tracer) intern(label string) uint32 {
	if i := slices.Index(t.labels, label); i >= 0 {
		return uint32(i) + 1
	}
	t.labels = append(t.labels, label)
	return uint32(len(t.labels))
}

// Emitted returns the total number of events ever recorded: every
// emission but those the data-band sample skipped.
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	return t.count
}

// Dropped returns how many events were overwritten across both rings.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.rings[bandControl].dropped + t.rings[bandData].dropped
}

// Events merges the two bands' rings into one slice ordered by
// (simulation time, emission count) — on the DES, emission order, which
// is causal order — then restamps Seq with the merge rank so consumers
// see a contiguous 1-based serial. Each ring is already a sorted run
// (ring.run makes sure), so the merge is a two-way merge of the runs into
// an exactly sized slice; the count never repeats, so no two records tie.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	// runs[b] is band b's run, read runs[b][0] then runs[b][1].
	var runs [numBands][2][]record
	n := 0
	for b := range t.rings {
		a, next := t.rings[b].run()
		runs[b] = [2][]record{a, next}
		n += len(a) + len(next)
	}
	ctl, data := &runs[bandControl], &runs[bandData]
	out := make([]Event, n)
	for k := range out {
		r := ctl
		if len(r[0]) == 0 || len(data[0]) > 0 && compareRecords(&data[0][0], &r[0][0]) < 0 {
			r = data
		}
		rec := &r[0][0]
		out[k] = Event{
			T: rec.T, Seq: uint64(k) + 1, Kind: rec.Kind, Router: rec.Router, Peer: rec.Peer,
			Dst: rec.Dst, Flow: rec.Flow, Pkt: rec.Pkt, Value: rec.Value,
		}
		if rec.label != 0 {
			out[k].Label = t.labels[rec.label-1]
		}
		if r[0] = r[0][1:]; len(r[0]) == 0 {
			r[0], r[1] = r[1], nil
		}
	}
	return out
}
