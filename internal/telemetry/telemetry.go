// Package telemetry is the simulation's instrumentation layer: a
// deterministic structured event bus plus a metrics registry, with JSONL,
// Chrome-trace (catapult), and plain-text exporters.
//
// Determinism is the design constraint everything else bends around. The
// paper harness guarantees byte-identical figures at any worker count and
// shard count, so telemetry must add no entropy: events are stamped with
// simulation time and a schedule-independent emission serial (never the
// wall clock), each simulation owns a private Tracer family (no
// cross-simulation sharing), and all exporters iterate in sorted orders
// with canonical float formatting. The serial packs the emitter's origin
// priority (the des engine's ambient origin) above a per-tracer emission
// count, so merging the tracers of a sharded run by (time, serial)
// reproduces exactly the order a serial run emits in; Events then restamps
// Seq with the merge rank, making the exported artifacts byte-identical at
// any shard count. A run's telemetry artifacts are therefore
// golden-testable — the JSONL of a figure regeneration hashes identically
// at -workers=1 and -workers=8.
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
// DES fires whole causal chains at one instant). Inside the rings Seq is a
// packed (origin priority << 40 | emission count) stamp; Events replaces it
// with the merge rank, so consumers always see Seq contiguous from 1.
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

// DefaultRingCap is the per-router ring capacity used by NewCapture:
// enough for every control-plane event of a figure-scale run; data-plane
// packet events may wrap on long runs (surfaced via Dropped).
const DefaultRingCap = 8192

// record is an Event as a ring holds it: the same fields, except that the
// label is an index into the emitting tracer's label table (0 for none,
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

// compareRecords orders records by (T, Seq), the merge key inside one
// ring; Seq never repeats within a tracer.
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

func (r *ring) push(rec *record) {
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, *rec)
		return
	}
	r.buf[r.head] = *rec
	r.head++
	if r.head == r.cap {
		r.head = 0
	}
	r.dropped++
}

// run returns the retained records in (T, Seq) order, as two segments to
// read one after the other; a is empty only when the ring is. Emission order is that order whenever the
// emitter's clock and origin never step back, as on the DES, and then run
// returns the ring's own storage: the oldest entries up to the end of the
// buffer, then the wrapped-around rest. Otherwise (a live node's
// wall-clock stamps) it returns a sorted copy.
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

// seqCountBits is the width of the per-tracer emission count inside the
// packed ring stamp; the origin priority occupies the bits above it.
const seqCountBits = 40

// Tracer is the event bus of one simulation shard: one ring per router plus
// a trailing network-scope ring. A shard is single-threaded, so the rings
// need no locks ("lock-free" the honest way); concurrency across shards is
// safe because each owns a private sibling Tracer (Fork), and concurrency
// across simulations because each owns a private family. A nil *Tracer is a
// valid no-op sink.
type Tracer struct {
	rings []ring
	count uint64
	// labels is the table the rings' label indices point into. Emit fills
	// it, so it shares the rings' single-writer rule.
	labels []string
	// origin, when set, supplies the emitter's origin priority (the des
	// engine's ambient origin) for the packed ring stamp. Nil leaves the
	// priority at zero, which preserves the legacy pure-emission-order
	// semantics for single-engine users.
	origin func() uint64
	// sibs are the forked sibling tracers of a sharded run; Events, Emitted,
	// and Dropped aggregate over the whole family. Only the root tracer of a
	// family carries sibs.
	sibs []*Tracer
}

// NewTracer builds a tracer for numRouters routers with the given
// per-router ring capacity (<= 0 selects DefaultRingCap).
func NewTracer(numRouters, ringCap int) *Tracer {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	if numRouters < 0 {
		numRouters = 0
	}
	t := &Tracer{rings: make([]ring, numRouters+1)}
	for i := range t.rings {
		t.rings[i].cap = ringCap
	}
	return t
}

// SetOrigin installs the origin-priority hook used to stamp emissions
// (typically des.Engine.Origin). Install it before the first Emit.
func (t *Tracer) SetOrigin(fn func() uint64) {
	if t == nil {
		return
	}
	t.origin = fn
}

// Fork creates a sibling tracer with the same ring layout, owned by one
// shard of a sharded run. The root's Events/Emitted/Dropped aggregate over
// every sibling; the sibling itself must not be exported directly. Forks
// exist only while core.Options.Shards does, which cmd/mdrbench's
// des-sf160 row still sets (ROADMAP item 20).
func (t *Tracer) Fork() *Tracer {
	if t == nil {
		return nil
	}
	s := &Tracer{rings: make([]ring, len(t.rings))}
	for i := range s.rings {
		s.rings[i].cap = t.rings[i].cap
	}
	t.sibs = append(t.sibs, s)
	return s
}

// Emit records ev, stamping the packed (origin << 40 | count) emission
// serial. Events whose Router is out of range (e.g. graph.None) land in the
// network-scope ring.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.count++
	var pri uint64
	if t.origin != nil {
		pri = t.origin()
	}
	rec := record{
		T: ev.T, Seq: pri<<seqCountBits | t.count&(1<<seqCountBits-1), Value: ev.Value,
		Router: ev.Router, Peer: ev.Peer, Dst: ev.Dst, Flow: ev.Flow, Pkt: ev.Pkt, Kind: ev.Kind,
	}
	if ev.Label != "" {
		rec.label = t.intern(ev.Label)
	}
	i := len(t.rings) - 1
	if r := int(ev.Router); r >= 0 && r < i {
		i = r
	}
	t.rings[i].push(&rec)
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

// Emitted returns the total number of events ever emitted across the
// tracer family.
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	n := t.count
	for _, s := range t.sibs {
		n += s.count
	}
	return n
}

// Dropped returns how many events were overwritten across all rings of the
// tracer family.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	var n uint64
	for i := range t.rings {
		n += t.rings[i].dropped
	}
	for _, s := range t.sibs {
		n += s.Dropped()
	}
	return n
}

// mergeRun is one ring's records in (T, Seq) order, recs then next,
// consumed from the front by Events' k-way merge; labels is its tracer's
// label table.
type mergeRun struct {
	recs, next []record
	labels     []string
}

// Events merges the rings of the whole tracer family into one slice
// ordered by (simulation time, packed origin serial) — the order a serial
// run emits in, regardless of how many shards actually ran — then restamps
// Seq with the merge rank so consumers see a contiguous 1-based serial.
// The (T, Seq, ring ordinal) key is a total order: a packed serial never
// repeats within one tracer, and each origin priority emits through one
// tracer of the family. Each ring is already a sorted run (ring.run makes
// sure), so the merge is a k-way heap merge of the runs into an exactly
// sized slice.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	var runs []mergeRun
	n := 0
	for _, tr := range append([]*Tracer{t}, t.sibs...) {
		for i := range tr.rings {
			if a, b := tr.rings[i].run(); len(a) > 0 {
				runs = append(runs, mergeRun{recs: a, next: b, labels: tr.labels})
				n += len(a) + len(b)
			}
		}
	}
	// heap is a binary min-heap of the non-empty runs' indices (their
	// ordinals) ordered by (head record, ordinal).
	heap := make([]int, len(runs))
	for i := range heap {
		heap[i] = i
	}
	less := func(i, j int) bool {
		if c := compareRecords(&runs[i].recs[0], &runs[j].recs[0]); c != 0 {
			return c < 0
		}
		return i < j
	}
	siftDown := func(i int) {
		for {
			m := i
			if c := 2*i + 1; c < len(heap) && less(heap[c], heap[m]) {
				m = c
			}
			if c := 2*i + 2; c < len(heap) && less(heap[c], heap[m]) {
				m = c
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	out := make([]Event, n)
	for k := range out {
		r := &runs[heap[0]]
		rec := &r.recs[0]
		out[k] = Event{
			T: rec.T, Seq: uint64(k) + 1, Kind: rec.Kind, Router: rec.Router, Peer: rec.Peer,
			Dst: rec.Dst, Flow: rec.Flow, Pkt: rec.Pkt, Value: rec.Value,
		}
		if rec.label != 0 {
			out[k].Label = r.labels[rec.label-1]
		}
		if r.recs = r.recs[1:]; len(r.recs) == 0 {
			r.recs, r.next = r.next, nil
		}
		if len(r.recs) == 0 {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(0)
	}
	return out
}
