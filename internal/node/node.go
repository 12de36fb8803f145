// Package node hosts live MPDA routers: each Node wraps one
// mpda.Router — the same state machine the simulator drives — behind a
// transport.Clock and a set of peer sessions running over real
// transports (in-memory pipes, TCP, or UDP with the ARQ layer).
//
// The runtime supplies exactly what the paper assumes and the simulator
// emulates: reliable in-order LSU delivery (the transport's job), plus
// neighbor up/down detection (this package's job, via a HELLO handshake
// and heartbeat dead timers feeding LinkUp/LinkDown). Because MPDA's
// converged state is schedule-independent — at quiescence every router
// holds FD_j = D_j over the same link database — a live mesh with
// nondeterministic goroutine scheduling must still land on the exact
// distance tables and successor sets the deterministic simulator
// computes. RouterSummary renders that state canonically so the two
// worlds can be hash-compared; TestCrossValidation holds us to it.
//
// Concurrency model: one mutex per Node guards the router and peer
// table. Peer read loops apply frames to the router under the lock;
// outbound frames go through per-peer queues drained by writer
// goroutines, so the router never blocks on a transport while holding
// the lock (and no cross-node lock cycle can form). A queue that reaches
// maxWriteQueue frames means the peer has stopped reading; the session
// ends as a dead link rather than growing memory without limit.
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
	"minroute/internal/telemetry"
	"minroute/internal/transport"
	"minroute/internal/wire"
)

// Trace is a concurrency-safe front for a telemetry.Tracer. The tracer
// itself is single-threaded by design (the simulator needs no locks); the
// live runtime is not, so every emission funnels through one mutex. A nil
// *Trace discards events.
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
func (t *Trace) Emitted() uint64 {
	if t == nil || t.tr == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tr.Emitted()
}

// Dropped returns how many events the bus's rings have overwritten (zero
// for a nil Trace). A nonzero value means the exported event log is
// truncated — the observability plane surfaces this as a first-class
// metric rather than leaving it to an exporter warning.
func (t *Trace) Dropped() uint64 {
	if t == nil || t.tr == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tr.Dropped()
}

// Events snapshots the merged event log under the lock — safe to call
// while the runtime is still emitting (ARQ retransmit timers keep firing
// between heartbeats for as long as a mesh is up, so readers cannot
// assume emission has stopped).
func (t *Trace) Events() []telemetry.Event {
	if t == nil || t.tr == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tr.Events()
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
	// Metrics, when non-nil, receives this node's session instruments
	// (session.* counters, session.peers gauge) and backs the /metrics
	// endpoint when ObsAddr is set. Give every node its own registry: the
	// instrument names carry no node qualifier, so a registry shared
	// between nodes would merge their totals.
	Metrics *telemetry.Registry
	// ObsAddr, when non-empty, serves the observability plane (metrics,
	// health, routes, peers, pprof) on this TCP address; port 0 binds an
	// ephemeral port, readable via ObsURL. The server is owned by the
	// node and reaped by Close.
	ObsAddr string
	// ExpectPeers is how many peer sessions /readyz requires before the
	// node can report ready (its expected topology degree).
	ExpectPeers int
	// ObsPollEvery and ObsStablePolls tune the readiness poller (see
	// obs.Config); zero selects the obs defaults.
	ObsPollEvery   float64
	ObsStablePolls int
	// Data, when non-nil, is this node's data-plane forwarder. The node
	// drives it: after every event that can move the router's successor
	// sets or distances, it derives per-destination phi weights from the
	// live tables (alloc.Initial over the successor distances — the
	// paper's initial heuristic) and publishes a fresh forwarding
	// snapshot. The node owns the forwarder from here on; Close reaps it.
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
	// deadGen invalidates dead timers that fired concurrently with the
	// frame arrival that reset them (Timer.Stop cannot un-run a callback
	// already blocked on the node lock).
	deadGen uint64
	down    bool
	// overflowed latches once the writer queue hits maxWriteQueue: nothing
	// more is queued (a gap in the stream would break reliable delivery).
	overflowed bool
}

// maxWriteQueue bounds a peer's writer queue in frames. The writer drains
// whole bursts per wakeup, so a cold-start flood sits far below this; only
// a peer whose transport has stopped accepting frames gets here.
const maxWriteQueue = 1 << 14

// nodeStats is the node's session-instrument handle set, resolved once
// at construction so no per-event path touches the registry maps. With a
// nil Config.Metrics every handle is nil — the usual one-branch no-op.
type nodeStats struct {
	peerUps   *telemetry.Counter
	peerDowns *telemetry.Counter
	lsusSent  *telemetry.Counter
	lsusRecv  *telemetry.Counter
	// wqOverflows counts sessions ended because the peer's writer queue
	// hit maxWriteQueue.
	wqOverflows *telemetry.Counter
	// evEmitted/evDropped mirror the event bus's totals (bus-wide: the
	// Trace is typically shared across a mesh) on each /metrics refresh.
	evEmitted *telemetry.Counter
	evDropped *telemetry.Counter
	peersUp   *telemetry.Gauge
}

// peerInstruments are one peer link's ARQ instrument handles, installed
// by the mesh at link setup (SetPeerStats) so /peers can read live
// retransmit and window values without name lookups.
type peerInstruments struct {
	retx *telemetry.Counter
	win  *telemetry.Gauge
	// wq mirrors the peer's writer-queue depth — frames accepted from the
	// router but not yet handed to the transport. A queue that grows
	// between scrapes marks a link slower than its control traffic.
	wq *telemetry.Gauge
}

// Node is one live MPDA router plus its peer sessions.
type Node struct {
	cfg   Config
	id    graph.NodeID
	clk   transport.Clock
	stats nodeStats

	mu    sync.Mutex
	r     *mpda.Router
	peers map[graph.NodeID]*peer
	// handshakes holds conns whose session is still in the HELLO exchange:
	// not yet in peers, but already owning a goroutine that may be blocked
	// in Recv. Close reaps them directly — without this, a session whose
	// remote never answers outlives the node (goroutine + conn leak).
	handshakes  map[transport.Conn]struct{}
	peerStats   map[graph.NodeID]peerInstruments
	obs         *obs.Server
	closed      bool
	activeSince float64
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
	// Resolve instrument handles once: the registry's maps are unlocked,
	// so every name lookup must happen before concurrent use.
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
	n.r = mpda.NewRouter(cfg.ID, cfg.Nodes, n.sendLSU)
	n.r.OnPhase = n.onPhase
	n.r.OnCommit = func(changed int) {
		n.emit(telemetry.KindTableCommit, graph.None, float64(changed), "")
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

// emit sends one telemetry event stamped with the node clock. Callers may
// hold n.mu; the Trace lock is independent.
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

// onPhase observes router phase flips (always called under n.mu).
func (n *Node) onPhase(active bool) {
	now := n.clk.Now()
	if active {
		n.activeSince = now
		n.emit(telemetry.KindPhaseActive, graph.None, 0, "")
		return
	}
	n.emit(telemetry.KindPhasePassive, graph.None, now-n.activeSince, "")
}

// sendLSU is the router's Sender: called under n.mu whenever MPDA emits
// an LSU toward a neighbor. A missing peer means the link raced down;
// dropping matches the physical reality that a dead link carries nothing.
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

// enqueueLocked hands f to p's writer. A full queue ends the session: the
// frame cannot be dropped silently (MPDA assumes reliable delivery on every
// link it believes up), so the link is declared dead instead. The teardown
// runs from a zero-delay timer, not here — sendLSU is called from inside
// the router, which must not see a re-entrant LinkDown.
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

// SetPeerStats installs the instrument handles for the link to peer: ARQ
// retransmit/window plus the writer-queue depth gauge. The mesh calls
// this at link setup; any handle may be nil (fabrics without ARQ leave
// the first two nil).
func (n *Node) SetPeerStats(peer graph.NodeID, retx *telemetry.Counter, win *telemetry.Gauge, wq *telemetry.Gauge) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peerStats[peer] = peerInstruments{retx: retx, win: win, wq: wq}
}

// AddPeer runs a session over conn: it sends our HELLO, waits for the
// peer's, resolves the link cost via costOf (returning false rejects the
// peer and closes conn), and then brings the link up and serves it until
// the connection dies, a BYE arrives, or the dead timer fires. AddPeer
// returns immediately; the session runs on its own goroutines.
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

// abortHandshake retires a handshake that failed before the peer
// registered: drop it from the reap set and release the conn.
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
	n.r.LinkUp(pid, cost)
	n.publishDataLocked()
	n.mu.Unlock()

	n.readLoop(p)
}

// writeLoop drains the peer's outbound queue onto the transport. It owns
// conn.Close: the queue's drain-then-fail close semantics let a BYE
// flush before the connection drops.
func (n *Node) writeLoop(p *peer) {
	for {
		// Drain the whole burst in one lock round-trip and hand the frames
		// to the transport back-to-back — on the ARQ that lets a flood of
		// small LSUs coalesce into MTU-sized datagrams.
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
				n.emit(telemetry.KindLSURecv, p.id, float64(len(m.Entries)), "")
				if m.Ack {
					n.emit(telemetry.KindLSUAck, p.id, 0, "")
				}
				n.r.HandleLSU(m)
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

// peerDownLocked tears one session down exactly once: stop timers,
// unregister, tell the router, and let the writer drain and close.
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
	n.r.LinkDown(p.id)
	n.publishDataLocked()
	p.out.Close()
}

// ChangeCost applies a new cost for the adjacent link to peer k, as a
// management-plane action (the live analogue of protonet.ChangeCost).
func (n *Node) ChangeCost(k graph.NodeID, cost float64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	p := n.peers[k]
	if p == nil {
		return fmt.Errorf("node %d: no live peer %d", n.id, k)
	}
	p.cost = cost
	n.r.LinkCostChange(k, cost)
	n.publishDataLocked()
	return nil
}

// DataPlane returns the node's forwarder, or nil without a data plane.
func (n *Node) DataPlane() *dataplane.Forwarder { return n.cfg.Data }

// publishDataLocked compiles the router's current successor sets into a
// forwarding-table snapshot and swaps it into the data plane. Called
// under n.mu after every event that can touch the tables — link up/down,
// LSU application, cost change. The router's commit hook is not enough:
// FD lowering in the PASSIVE step can widen a successor set without a
// table commit, and the data plane must see it.
//
// The phi weights are alloc.Initial over the live successor distances —
// the paper's initial heuristic IH: a single successor takes the whole
// flow; multiple successors split inversely to their marginal distance
// D_jk + l_ik. The simulator's routers run the same allocator over the
// same converged distances, which is what makes the live split
// cross-validatable against the DES.
func (n *Node) publishDataLocked() {
	if n.cfg.Data == nil {
		return
	}
	entries := make([]dataplane.Entry, 0, n.cfg.Nodes)
	for j := 0; j < n.cfg.Nodes; j++ {
		jid := graph.NodeID(j)
		if jid == n.id {
			continue
		}
		succ := n.r.Successors(jid)
		if len(succ) == 0 {
			continue
		}
		phi := alloc.Initial(succ, func(k graph.NodeID) float64 {
			return n.r.SuccessorDistance(jid, k)
		})
		e := dataplane.Entry{
			Dst:     jid,
			Hops:    make([]graph.NodeID, 0, len(succ)),
			Weights: make([]float64, 0, len(succ)),
		}
		for _, k := range phi.Keys() {
			e.Hops = append(e.Hops, k)
			e.Weights = append(e.Weights, phi[k])
		}
		entries = append(entries, e)
	}
	n.cfg.Data.Publish(entries)
}

// Passive reports whether the router is in the PASSIVE phase.
func (n *Node) Passive() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.r.Active()
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

// Outstanding sums the unacknowledged transport windows across peers;
// zero means every frame sent so far has provably reached its neighbor.
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
	return RouterSummary(n.r)
}

// Close tears every session down, sending BYE so peers drop the link
// immediately instead of waiting out their dead timers, then reaps the
// node's obs server if it has one.
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
	// Reap sessions still mid-handshake: closing the conn errors out their
	// pending Send/Recv, and the session exits through abortHandshake.
	//lint:maporder-ok a transport.Conn key has no order to walk; each close only errors out its own handshake
	for conn := range n.handshakes {
		delete(n.handshakes, conn)
		conn.Close()
	}
	n.stats.peersUp.Set(0)
	srv := n.obs
	n.obs = nil
	// The obs server is closed outside n.mu: its poll ticks and HTTP
	// handlers sample node state through this same mutex, so joining them
	// under the lock would deadlock.
	n.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
	if n.cfg.Data != nil {
		n.cfg.Data.Close()
	}
}

// ObsURL returns the base URL of the node's observability server, or ""
// when none was configured (or the node is closed).
func (n *Node) ObsURL() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.obs == nil {
		return ""
	}
	return n.obs.URL()
}

// obsSample snapshots the node's live state for the observability plane,
// all under one lock acquisition so the view is consistent.
func (n *Node) obsSample() obs.Sample {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := obs.Sample{
		ID:       int(n.id),
		Passive:  !n.r.Active(),
		MinPeers: n.cfg.ExpectPeers,
		Summary:  RouterSummary(n.r),
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

// refreshObsMetrics refreshes the sampled (non-counter) instruments right
// before a /metrics gather: the event bus's totals (bus-wide — a mesh
// shares one Trace, so every node reports the same pair) and each live
// peer's writer-queue depth.
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

// DestState is one destination row of a routing-state snapshot. FD is
// the feasible distance (-1 while not established: +Inf has no JSON
// encoding); Best is the minimum-distance successor, or -1 with none.
type DestState struct {
	Dst        graph.NodeID   `json:"dst"`
	Dist       float64        `json:"dist"`
	FD         float64        `json:"fd"`
	Best       graph.NodeID   `json:"best"`
	Successors []graph.NodeID `json:"successors"`
}

// State is a JSON-friendly snapshot of one router's routing state.
// Unreachable destinations (D_j = +Inf) are omitted: +Inf has no JSON
// encoding, and absence is the natural rendering of "no route".
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
	var rows []DestState
	for j := 0; j < n.cfg.Nodes; j++ {
		jid := graph.NodeID(j)
		d := n.r.Dist(jid)
		if math.IsInf(d, 1) {
			continue
		}
		fd := n.r.FD(jid)
		if math.IsInf(fd, 1) {
			fd = -1 // +Inf has no JSON encoding; -1 marks "not established"
		}
		rows = append(rows, DestState{
			Dst: jid, Dist: d, FD: fd, Best: n.r.BestSuccessor(jid),
			Successors: append([]graph.NodeID{}, n.r.Successors(jid)...),
		})
	}
	return rows
}

// RouterSummary renders a router's converged state in the canonical
// cross-validation format: one line per destination with the distance
// D_j (%.9g, the repo's table idiom) and the successor set S_j ascending.
// Live nodes and protonet-driven reference routers render through the
// same function, so equal state means equal strings means equal hashes.
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
