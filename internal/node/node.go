// Package node hosts live routers: each Node runs one router.Agent — the
// per-router algorithm the simulator runs, with both clocks off and its link
// costs handed in by the sessions — over peer sessions on real transports
// (in-memory pipes, TCP, or UDP with the ARQ layer).
//
// The runtime supplies what the paper assumes and the simulator emulates:
// reliable in-order LSU delivery (the transport's job) and neighbor up/down
// detection (a HELLO handshake and heartbeat dead timers). MPDA's converged
// state is schedule-independent — at quiescence every router holds FD_j =
// D_j over the same link database — so a live mesh must land on the exact
// tables the deterministic simulator computes. RouterSummary renders that
// state canonically; TestCrossValidation hash-compares the two worlds.
//
// Concurrency: one mutex per Node guards the agent and the peer table. The
// read loops, and the agent's calls back into the node (an LSU to send, a
// φ_j to publish), run under it. Outbound frames go through per-peer queues
// drained by writer goroutines, so the agent never blocks on a transport
// under the lock and no cross-node lock cycle can form. A queue that reaches
// maxWriteQueue frames means the peer stopped reading: the session ends as a
// dead link rather than growing memory without limit.
package node

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"minroute/internal/alloc"
	"minroute/internal/dataplane"
	"minroute/internal/graph"
	"minroute/internal/lsu"
	"minroute/internal/mpda"
	"minroute/internal/obs"
	"minroute/internal/router"
	"minroute/internal/telemetry"
	"minroute/internal/transport"
	"minroute/internal/wire"
)

// Trace is a concurrency-safe front for a single-threaded telemetry.Tracer:
// every emission funnels through one mutex. A nil *Trace discards events.
type Trace struct {
	mu sync.Mutex
	tr *telemetry.Tracer
}

// NewTrace wraps tr; nil tr yields a no-op Trace.
func NewTrace(tr *telemetry.Tracer) *Trace { return &Trace{tr: tr} }

// Emit forwards ev to the tracer under the lock.
func (t *Trace) Emit(ev telemetry.Event) {
	if t == nil || t.tr == nil {
		return
	}
	t.mu.Lock()
	t.tr.Emit(ev)
	t.mu.Unlock()
}

// Emitted returns the total number of events ever emitted on the bus
// (zero for a nil Trace). Safe while the runtime is still emitting.
func (t *Trace) Emitted() uint64 { return read(t, (*telemetry.Tracer).Emitted) }

// Dropped returns how many events the bus's rings have overwritten (zero
// for a nil Trace): nonzero means the exported log is truncated, which the
// observability plane surfaces as a metric.
func (t *Trace) Dropped() uint64 { return read(t, (*telemetry.Tracer).Dropped) }

// Events snapshots the merged event log under the lock, so it is safe while
// the runtime still emits (ARQ timers fire for as long as a mesh is up).
func (t *Trace) Events() []telemetry.Event { return read(t, (*telemetry.Tracer).Events) }

// read applies f to t's tracer under the lock; a nil Trace reads zero.
func read[T any](t *Trace, f func(*telemetry.Tracer) T) (v T) {
	if t == nil || t.tr == nil {
		return v
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return f(t.tr)
}

// Config parameterizes one live node.
type Config struct {
	// ID is this router's node ID; Nodes is the ID-space size.
	ID    graph.NodeID
	Nodes int
	// Clock drives heartbeats, dead timers, and telemetry timestamps:
	// NewWallClock for live runs, transport.NewVirtualClock for deterministic
	// tests.
	Clock transport.Clock
	// HeartbeatEvery is the keepalive period in seconds (default 0.25).
	HeartbeatEvery float64
	// DeadAfter declares a silent peer down, in seconds (default 1.0 —
	// four missed heartbeats at the default period).
	DeadAfter float64
	// Trace, when non-nil, receives session and protocol events.
	Trace *Trace
	// Metrics, when non-nil, receives this node's session.* instruments and
	// backs /metrics when ObsAddr is set. Give every node its own registry:
	// the names carry no node qualifier, so a shared one merges totals.
	Metrics *telemetry.Registry
	// ObsAddr, when non-empty, serves the observability plane (metrics,
	// health, routes, peers, pprof) on this TCP address (port 0: ephemeral,
	// see ObsURL). Close reaps the server.
	ObsAddr string
	// ExpectPeers is how many peer sessions /readyz requires before the
	// node can report ready (its expected topology degree).
	ExpectPeers int
	// ObsPollEvery and ObsStablePolls tune the readiness poller (see
	// obs.Config); zero selects the obs defaults.
	ObsPollEvery   float64
	ObsStablePolls int
	// Data, when non-nil, is this node's forwarder, which the node owns from
	// here on: it gets the agent's φ as one snapshot after each event that
	// made IH rebuild some φ_j.
	Data *dataplane.Forwarder
}

func (c Config) withDefaults() Config {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 0.25
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 1.0
	}
	return c
}

// peer is one live neighbor session.
type peer struct {
	id   graph.NodeID
	cost float64
	conn transport.Conn
	out  *transport.Queue
	hb   transport.Timer
	dead transport.Timer
	// deadGen invalidates a dead timer that fired as a frame reset it (Stop
	// cannot un-run a callback blocked on the node lock).
	deadGen uint64
	down    bool
	// overflowed latches at maxWriteQueue: nothing more is queued, as a gap
	// would break reliable delivery.
	overflowed bool
}

// maxWriteQueue bounds a peer's writer queue in frames. Whole bursts drain
// per wakeup, so only a transport that stopped accepting frames gets here.
const maxWriteQueue = 1 << 14

// nodeStats holds the node's session instruments, resolved once so no
// per-event path touches the registry maps; all nil without Config.Metrics.
type nodeStats struct {
	peerUps   *telemetry.Counter
	peerDowns *telemetry.Counter
	lsusSent  *telemetry.Counter
	lsusRecv  *telemetry.Counter
	// wqOverflows counts sessions ended because the peer's writer queue
	// hit maxWriteQueue.
	wqOverflows *telemetry.Counter
	// evEmitted/evDropped mirror the (usually mesh-wide) bus's totals.
	evEmitted *telemetry.Counter
	evDropped *telemetry.Counter
	peersUp   *telemetry.Gauge
}

// peerInstruments are one peer link's instrument handles, resolved once by
// the mesh at link setup (setPeerStats) so /peers and the ARQ's per-event
// callbacks write through them without name lookups.
type peerInstruments struct {
	retx *telemetry.Counter
	win  *telemetry.Gauge
	// wq mirrors the writer-queue depth: a queue growing between scrapes
	// marks a link slower than its control traffic.
	wq *telemetry.Gauge
}

// Node is one live MPDA router plus its peer sessions.
type Node struct {
	cfg   Config
	id    graph.NodeID
	clk   transport.Clock
	stats nodeStats

	mu    sync.Mutex
	agent *router.Agent
	peers map[graph.NodeID]*peer
	// handshakes holds conns still in the HELLO exchange, whose goroutine
	// may block in Recv: Close reaps them, or a silent remote would leak it.
	handshakes map[transport.Conn]struct{}
	peerStats  map[graph.NodeID]peerInstruments
	obs        *obs.Server
	closed     bool
	// routes[j] is the forwarding entry φ_j was last published as, and
	// republish marks entries the data plane has not been handed yet (both
	// only with Config.Data).
	routes    []dataplane.Entry
	republish bool
}

// New builds a node; the router starts PASSIVE with no peers.
func New(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Clock == nil {
		return nil, fmt.Errorf("node: Config.Clock is required")
	}
	if cfg.Nodes <= 0 || int(cfg.ID) < 0 || int(cfg.ID) >= cfg.Nodes {
		return nil, fmt.Errorf("node: ID %d outside ID space of %d nodes", cfg.ID, cfg.Nodes)
	}
	n := &Node{
		cfg:        cfg,
		id:         cfg.ID,
		clk:        cfg.Clock,
		peers:      make(map[graph.NodeID]*peer),
		handshakes: make(map[transport.Conn]struct{}),
		peerStats:  make(map[graph.NodeID]peerInstruments),
	}
	// The registry's maps are unlocked: look every name up before going live.
	n.stats = nodeStats{
		peerUps:     cfg.Metrics.Counter("session.peer_ups"),
		peerDowns:   cfg.Metrics.Counter("session.peer_downs"),
		lsusSent:    cfg.Metrics.Counter("session.lsus_sent"),
		lsusRecv:    cfg.Metrics.Counter("session.lsus_received"),
		wqOverflows: cfg.Metrics.Counter("session.writeq_overflows"),
		evEmitted:   cfg.Metrics.Counter("telemetry.events.emitted"),
		evDropped:   cfg.Metrics.Counter("telemetry.events.dropped"),
		peersUp:     cfg.Metrics.Gauge("session.peers"),
	}
	// The sessions price every link.
	n.agent = router.NewAgent(cfg.ID, cfg.Nodes, router.Config{},
		router.ClocklessHost{Clock: n.clk.Now, Send: n.sendLSU, OnAlloc: n.setRoute}, nil)
	if cfg.Trace != nil {
		n.agent.Observe(cfg.Trace, nil)
	}
	if cfg.Data != nil {
		n.routes = make([]dataplane.Entry, cfg.Nodes)
	}
	if cfg.ObsAddr != "" {
		srv, err := obs.NewServer(obs.Config{
			Addr:        cfg.ObsAddr,
			Clock:       cfg.Clock,
			Sample:      n.obsSample,
			Registry:    cfg.Metrics,
			Refresh:     n.refreshObsMetrics,
			ConstLabels: map[string]string{"node": strconv.Itoa(int(cfg.ID))},
			PollEvery:   cfg.ObsPollEvery,
			StablePolls: cfg.ObsStablePolls,
		})
		if err != nil {
			return nil, err
		}
		n.obs = srv
	}
	return n, nil
}

// ID returns the node's router ID.
func (n *Node) ID() graph.NodeID { return n.id }

// emit sends one event stamped with the node clock (n.mu may be held).
func (n *Node) emit(k telemetry.Kind, peer graph.NodeID, value float64, label string) {
	if n.cfg.Trace == nil {
		return
	}
	ev := telemetry.NewEvent(n.clk.Now(), k, n.id)
	ev.Peer = peer
	ev.Value = value
	ev.Label = label
	n.cfg.Trace.Emit(ev)
}

// setRoute is the agent's Publish: it records φ_j as the forwarding entry
// for j, for publishDataLocked to hand the data plane; no φ means no route.
func (n *Node) setRoute(j graph.NodeID, phi alloc.Params, succ []graph.NodeID) {
	if n.routes == nil {
		return
	}
	e := &n.routes[j]
	e.Dst, e.Hops, e.Weights = j, e.Hops[:0], e.Weights[:0]
	if len(phi) > 0 {
		for _, k := range succ {
			e.Hops = append(e.Hops, k)
			e.Weights = append(e.Weights, phi[k])
		}
	}
	n.republish = true
}

// sendLSU is the agent's SendLSU, called under n.mu. A missing peer means
// the link raced down, and a dead link carries nothing.
func (n *Node) sendLSU(to graph.NodeID, m *lsu.Msg) {
	p := n.peers[to]
	if p == nil || p.down {
		return
	}
	f, err := wire.NewLSU(m)
	if err != nil {
		return
	}
	n.stats.lsusSent.Inc()
	n.emit(telemetry.KindLSUSend, to, float64(f.EncodedBytes()*8), "")
	n.enqueueLocked(p, f)
}

// enqueueLocked hands f to p's writer. A full queue ends the session: MPDA
// assumes reliable delivery, so the link is declared dead rather than the
// frame dropped — from a zero-delay timer, as sendLSU runs inside the agent,
// which must not see a re-entrant LinkDown.
func (n *Node) enqueueLocked(p *peer, f *wire.Frame) {
	if p.overflowed {
		return
	}
	if p.out.Depth() < maxWriteQueue {
		p.out.Push(f)
		return
	}
	p.overflowed = true
	n.stats.wqOverflows.Inc()
	n.clk.AfterFunc(0, func() {
		n.peerDown(p, "overflow")
		// The writer is wedged inside Send; closing the conn frees it.
		p.conn.Close()
	})
}

// setPeerStats installs the instrument handles for the link to peer. The
// mesh calls this at link setup; any handle may be nil (fabrics without ARQ
// leave retx and win nil).
func (n *Node) setPeerStats(peer graph.NodeID, li peerInstruments) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peerStats[peer] = li
}

// AddPeer runs a session over conn on its own goroutines: HELLOs both ways,
// the link cost from costOf (false rejects the peer and closes conn), then
// the link up until the connection dies, a BYE arrives or the dead timer
// fires.
func (n *Node) AddPeer(conn transport.Conn, costOf func(peer graph.NodeID) (float64, bool)) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		conn.Close()
		return
	}
	// Register before spawning: from this point Close knows about the conn
	// and will close it, which unblocks a session stuck in the handshake.
	n.handshakes[conn] = struct{}{}
	n.mu.Unlock()
	go n.session(conn, costOf)
}

// abortHandshake drops a failed handshake from the reap set and closes conn.
func (n *Node) abortHandshake(conn transport.Conn) {
	n.mu.Lock()
	delete(n.handshakes, conn)
	n.mu.Unlock()
	conn.Close()
}

func (n *Node) session(conn transport.Conn, costOf func(peer graph.NodeID) (float64, bool)) {
	if err := conn.Send(wire.NewHello(n.id)); err != nil {
		n.abortHandshake(conn)
		return
	}
	f, err := conn.Recv()
	if err != nil || f.Type != wire.TypeHello {
		n.abortHandshake(conn)
		return
	}
	pid, err := wire.HelloNode(f)
	if err != nil || int(pid) < 0 || int(pid) >= n.cfg.Nodes || pid == n.id {
		n.abortHandshake(conn)
		return
	}
	cost, ok := costOf(pid)
	if !ok {
		n.abortHandshake(conn)
		return
	}

	p := &peer{id: pid, cost: cost, conn: conn, out: transport.NewQueue()}
	n.mu.Lock()
	delete(n.handshakes, conn)
	if n.closed || n.peers[pid] != nil {
		n.mu.Unlock()
		conn.Close()
		return
	}
	n.peers[pid] = p
	go n.writeLoop(p)
	n.armHeartbeatLocked(p)
	n.armDeadLocked(p)
	n.stats.peerUps.Inc()
	n.stats.peersUp.Set(float64(len(n.peers)))
	n.emit(telemetry.KindPeerUp, pid, cost, "")
	n.agent.LinkUp(pid, cost)
	n.publishDataLocked()
	n.mu.Unlock()

	n.readLoop(p)
}

// writeLoop drains the peer's queue onto the transport. It owns conn.Close:
// the queue drains before it fails, so a BYE flushes first.
func (n *Node) writeLoop(p *peer) {
	for {
		// A whole burst per lock round-trip, back-to-back: on the ARQ small
		// LSUs coalesce into MTU-sized datagrams.
		fs, err := p.out.PopAll()
		if err != nil {
			p.conn.Close()
			return
		}
		for _, f := range fs {
			if p.conn.Send(f) != nil {
				p.conn.Close()
				return
			}
		}
	}
}

// readLoop applies inbound frames to the router until the session ends.
func (n *Node) readLoop(p *peer) {
	for {
		f, err := p.conn.Recv()
		if err != nil {
			n.peerDown(p, "closed")
			return
		}
		n.mu.Lock()
		if p.down {
			n.mu.Unlock()
			return
		}
		// Any traffic proves liveness: push the dead timer out.
		p.dead.Stop()
		n.armDeadLocked(p)
		switch f.Type {
		case wire.TypeLSU:
			// An LSU reports its sender's own table: one that names another
			// origin would be written into that neighbor's T_k.
			if m, err := wire.LSUMsg(f); err == nil && m.From == p.id {
				n.stats.lsusRecv.Inc()
				n.agent.HandleLSU(m)
				n.publishDataLocked()
			}
		case wire.TypeBye:
			n.peerDownLocked(p, "bye")
			n.mu.Unlock()
			return
		default:
			// HELLO repeats and heartbeats carry no protocol payload.
		}
		n.mu.Unlock()
	}
}

// armHeartbeatLocked schedules the next keepalive; each firing re-arms.
func (n *Node) armHeartbeatLocked(p *peer) {
	p.hb = n.clk.AfterFunc(n.cfg.HeartbeatEvery, func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		if p.down {
			return
		}
		n.enqueueLocked(p, wire.NewHeartbeat())
		n.armHeartbeatLocked(p)
	})
}

// armDeadLocked schedules the silent-peer deadline.
func (n *Node) armDeadLocked(p *peer) {
	p.deadGen++
	gen := p.deadGen
	p.dead = n.clk.AfterFunc(n.cfg.DeadAfter, func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		if gen != p.deadGen {
			return // reset by traffic after this firing was committed
		}
		n.peerDownLocked(p, "timeout")
	})
}

func (n *Node) peerDown(p *peer, reason string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peerDownLocked(p, reason)
}

// peerDownLocked tears a session down once: timers, registry, agent, writer.
func (n *Node) peerDownLocked(p *peer, reason string) {
	if p.down {
		return
	}
	p.down = true
	p.hb.Stop()
	p.dead.Stop()
	delete(n.peers, p.id)
	n.stats.peerDowns.Inc()
	n.stats.peersUp.Set(float64(len(n.peers)))
	n.emit(telemetry.KindPeerDown, p.id, 0, reason)
	n.agent.LinkDown(p.id)
	n.publishDataLocked()
	p.out.Close()
}

// ChangeCost sets the cost of the link to peer k (the live analogue of
// protonet.ChangeCost).
func (n *Node) ChangeCost(k graph.NodeID, cost float64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	p := n.peers[k]
	if p == nil {
		return fmt.Errorf("node %d: no live peer %d", n.id, k)
	}
	p.cost = cost
	n.agent.LinkCostChange(k, cost)
	n.publishDataLocked()
	return nil
}

// DataPlane returns the node's forwarder, or nil without a data plane.
func (n *Node) DataPlane() *dataplane.Forwarder { return n.cfg.Data }

// publishDataLocked, under n.mu after each agent event, hands the data plane
// one snapshot of every entry if the agent published some φ_j since; else
// the forwarder keeps its table.
func (n *Node) publishDataLocked() {
	if !n.republish {
		return
	}
	n.republish = false
	n.cfg.Data.Publish(n.routes) // it skips the entries with no hops
}

// Passive reports whether the router is in the PASSIVE phase.
func (n *Node) Passive() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.agent.Protocol().Active()
}

// PeerCount returns the number of live peer sessions.
func (n *Node) PeerCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.peers)
}

// Peers returns the live peer IDs in ascending order.
func (n *Node) Peers() []graph.NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.peerIDsLocked()
}

func (n *Node) peerIDsLocked() []graph.NodeID {
	ids := make([]graph.NodeID, 0, len(n.peers))
	//lint:maporder-ok keys are collected and sorted before use
	for id := range n.peers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Outstanding sums the peers' unacknowledged transport windows: zero means
// every frame sent has reached its neighbor.
func (n *Node) Outstanding() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for _, id := range n.peerIDsLocked() {
		if o, ok := n.peers[id].conn.(interface{ Outstanding() int }); ok {
			total += o.Outstanding()
		}
	}
	return total
}

// Summary renders this node's routing state canonically (see
// RouterSummary).
func (n *Node) Summary() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return RouterSummary(n.agent.Protocol())
}

// Close ends every session with a BYE, so peers need not wait out their
// dead timers, and reaps the obs server.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	for _, id := range n.peerIDsLocked() {
		p := n.peers[id]
		p.down = true
		p.hb.Stop()
		p.dead.Stop()
		delete(n.peers, id)
		p.out.Push(wire.NewBye())
		p.out.Close()
	}
	// Closing a mid-handshake conn errors its session out via abortHandshake.
	//lint:maporder-ok a transport.Conn key has no order to walk; each close only errors out its own handshake
	for conn := range n.handshakes {
		delete(n.handshakes, conn)
		conn.Close()
	}
	n.stats.peersUp.Set(0)
	srv := n.obs
	n.obs = nil
	// The obs server samples state through n.mu: close it outside the lock.
	n.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
	if n.cfg.Data != nil {
		n.cfg.Data.Close()
	}
}

// ObsURL returns the observability server's base URL ("" with none).
func (n *Node) ObsURL() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.obs == nil {
		return ""
	}
	return n.obs.URL()
}

// obsSample snapshots the node for the observability plane under one lock.
func (n *Node) obsSample() obs.Sample {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := obs.Sample{
		ID:       int(n.id),
		Passive:  !n.agent.Protocol().Active(),
		MinPeers: n.cfg.ExpectPeers,
		Summary:  RouterSummary(n.agent.Protocol()),
	}
	for _, id := range n.peerIDsLocked() {
		p := n.peers[id]
		pi := obs.Peer{ID: int(id), Cost: p.cost}
		if o, ok := p.conn.(interface{ Outstanding() int }); ok {
			pi.Outstanding = o.Outstanding()
			s.Outstanding += pi.Outstanding
		}
		if r, ok := p.conn.(interface{ RTO() float64 }); ok {
			pi.RTO = r.RTO()
		}
		inst := n.peerStats[id]
		pi.Retransmits = inst.retx.Value()
		pi.Window = inst.win.Value()
		pi.Queue = p.out.Depth()
		s.Peers = append(s.Peers, pi)
	}
	for _, d := range n.destRowsLocked() {
		rt := obs.Route{Dst: int(d.Dst), Dist: d.Dist, FD: d.FD, Best: int(d.Best)}
		for _, k := range d.Successors {
			rt.Successors = append(rt.Successors, int(k))
		}
		s.Routes = append(s.Routes, rt)
	}
	if n.cfg.Data != nil {
		s.Data = dataSample(n.cfg.Data)
	}
	return s
}

// dataSample converts a forwarder snapshot into the obs wire shape.
func dataSample(f *dataplane.Forwarder) *obs.DataSample {
	snap := f.Snapshot()
	d := &obs.DataSample{
		Addr:        f.LocalAddr(),
		Origin:      snap.Origin,
		Forwarded:   snap.Forwarded,
		Delivered:   snap.Delivered,
		DropNoRoute: snap.DropNoRoute,
		DropNoAddr:  snap.DropNoAddr,
		TTLExpired:  snap.TTLExpired,
		Looped:      snap.Looped,
		RecvErrors:  snap.RecvErrors,
	}
	for _, sp := range snap.Splits {
		d.Splits = append(d.Splits, obs.SplitEntry{
			Dst: int(sp.Dst), Hop: int(sp.Hop), Packets: sp.Packets,
			Got: sp.Got, Want: sp.Want,
		})
	}
	for _, fl := range snap.Flows {
		d.Flows = append(d.Flows, obs.FlowSample{
			FlowID: fl.FlowID, Src: int(fl.Src), Packets: fl.Packets, Bits: fl.Bits,
			MeanDelayMs: fl.MeanDelay() * 1e3, MaxDelayMs: fl.MaxDelay * 1e3,
		})
	}
	return d
}

// refreshObsMetrics, before a /metrics gather, samples the bus's totals
// (mesh-wide) and each live peer's writer-queue depth.
func (n *Node) refreshObsMetrics() {
	if n.cfg.Trace != nil {
		n.stats.evEmitted.Set(float64(n.cfg.Trace.Emitted()))
		n.stats.evDropped.Set(float64(n.cfg.Trace.Dropped()))
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, id := range n.peerIDsLocked() {
		if inst := n.peerStats[id]; inst.wq != nil {
			inst.wq.Set(float64(n.peers[id].out.Depth()))
		}
	}
}

// DestState is one destination row of a routing-state snapshot. FD is -1
// while not established (+Inf has no JSON encoding); Best is -1 with none.
type DestState struct {
	Dst        graph.NodeID   `json:"dst"`
	Dist       float64        `json:"dist"`
	FD         float64        `json:"fd"`
	Best       graph.NodeID   `json:"best"`
	Successors []graph.NodeID `json:"successors"`
}

// State is a JSON-friendly snapshot of one router's routing state; it
// omits unreachable destinations (D_j = +Inf).
type State struct {
	ID    graph.NodeID `json:"id"`
	Dests []DestState  `json:"dests"`
}

// State snapshots the node's routing state for machine consumption
// (cmd/mdrnode's JSON dump).
func (n *Node) State() State {
	n.mu.Lock()
	defer n.mu.Unlock()
	return State{ID: n.id, Dests: n.destRowsLocked()}
}

// destRowsLocked renders one row per reachable destination — the single
// walk behind both State and the observability plane's /routes.
func (n *Node) destRowsLocked() []DestState {
	r := n.agent.Protocol()
	var rows []DestState
	for j := 0; j < n.cfg.Nodes; j++ {
		jid := graph.NodeID(j)
		d := r.Dist(jid)
		if math.IsInf(d, 1) {
			continue
		}
		fd := r.FD(jid)
		if math.IsInf(fd, 1) {
			fd = -1 // +Inf has no JSON encoding; -1 marks "not established"
		}
		rows = append(rows, DestState{
			Dst: jid, Dist: d, FD: fd, Best: r.BestSuccessor(jid),
			Successors: append([]graph.NodeID{}, r.Successors(jid)...),
		})
	}
	return rows
}

// RouterSummary renders a router's state canonically for cross-validation:
// a line per destination with D_j (%.9g) and S_j ascending. Live and
// reference routers render through it, so equal state gives equal hashes.
func RouterSummary(r *mpda.Router) string {
	var b strings.Builder
	fmt.Fprintf(&b, "router %d\n", r.ID())
	for j := 0; j < r.Tables().NumNodes(); j++ {
		fmt.Fprintf(&b, " dst %d D=%.9g S=[", j, r.Dist(graph.NodeID(j)))
		for i, k := range r.Successors(graph.NodeID(j)) {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", k)
		}
		b.WriteString("]\n")
	}
	return b.String()
}

// HashState digests concatenated router summaries into a hex state hash.
func HashState(summaries ...string) string {
	h := sha256.New()
	for _, s := range summaries {
		h.Write([]byte(s))
	}
	return hex.EncodeToString(h.Sum(nil))
}
