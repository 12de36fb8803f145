// Package node hosts live routers: each Node runs one router.Agent — the
// per-router algorithm the simulator runs, with both clocks off and its link
// costs handed in by the sessions — over peer sessions, one per lane
// (in-memory packet pipes, UDP sockets or TCP streams).
//
// The runtime supplies what the paper assumes and the simulator emulates:
// reliable in-order LSU delivery (a transport.ARQ per session) and
// neighbor up/down detection (a HELLO handshake, heartbeats and a dead
// deadline). MPDA's converged state is schedule-independent — at quiescence
// every router holds FD_j = D_j over the same link database — so a live
// mesh must land on the exact tables the deterministic simulator computes.
// mpda.Router.AppendState encodes that state exactly; TestCrossValidation
// compares the two worlds' encodings.
//
// Concurrency: one mutex per Node guards the agent and every session —
// its HELLO phase, its ARQ machine, its deadlines and its backlog. A
// session's one goroutine is its lane's reader: it reads a datagram, locks
// the node, steps the session, the agent and every session the step gave
// frames to, unlocks, and only then writes what those sessions emitted.
// The node's one clock timer, armed at the earliest session deadline,
// steps the same way. No transport call blocks under the lock, so no
// cross-node lock cycle can form; frames the send window has no room for
// wait in the session's backlog, and one that reaches maxWriteQueue frames
// means the peer stopped acknowledging: the session ends as a dead link
// rather than growing memory without limit.
package node

import (
	"fmt"
	"math"
	"slices"
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
	// ExpectPeers is how many peer sessions the settle rule requires
	// before the node counts as settled (its expected topology degree).
	ExpectPeers int
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

// session is one peer link: the lane, the ARQ machine over it and the
// session state around that — the HELLO phase, the liveness deadlines and
// the frames waiting for window space. Node.mu guards the fields; out
// belongs to whoever holds the write turn.
type session struct {
	lane   transport.Packet
	costOf func(peer graph.NodeID) (float64, bool)
	arq    *transport.ARQ
	id     graph.NodeID // the peer, once its HELLO arrived
	cost   float64
	up     bool // HELLO in: the link is the agent's
	ended  bool // torn down, lane closed
	heard  float64
	beat   float64 // next heartbeat due
	// backlog holds frames the full window has no room for yet, in order.
	backlog []*wire.Frame
	// overflow, set inside a step, ends the session after it: the agent
	// must not see a re-entrant LinkDown.
	overflow bool
	touched  bool // listed in Node.touched for the current step
	// writing marks a goroutine holding the write turn, and out are its
	// datagrams; steps meanwhile leave theirs to it.
	writing bool
	out     [][]byte
}

// maxWriteQueue bounds a session's backlog in frames. A window of
// unacknowledged frames comes first, so only a peer that stopped
// acknowledging gets here.
const maxWriteQueue = 1 << 14

// nodeStats holds the node's session instruments, resolved once so no
// per-event path touches the registry maps; all nil without Config.Metrics.
type nodeStats struct {
	peerUps   *telemetry.Counter
	peerDowns *telemetry.Counter
	lsusSent  *telemetry.Counter
	lsusRecv  *telemetry.Counter
	// wqOverflows counts sessions ended because the backlog hit
	// maxWriteQueue.
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
	// wq mirrors the backlog depth: a backlog growing between scrapes
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
	// sessions are the live ones, in attach order; peers indexes those
	// that are up by peer ID.
	sessions []*session
	peers    []*session
	npeers   int
	// touched are the sessions the current step gave something to do.
	touched []*session
	// timer is the node's one clock timer, due at timerAt; gen invalidates
	// a firing that raced its replacement.
	timer     transport.Timer
	timerAt   float64
	gen       uint64
	peerStats map[graph.NodeID]peerInstruments
	obs       *obs.Server
	closed    bool
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
		cfg:       cfg,
		id:        cfg.ID,
		clk:       cfg.Clock,
		peers:     make([]*session, cfg.Nodes),
		timerAt:   math.Inf(1),
		peerStats: make(map[graph.NodeID]peerInstruments),
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
			Sample:      n.Sample,
			Registry:    cfg.Metrics,
			Refresh:     n.refreshObsMetrics,
			ConstLabels: map[string]string{"node": strconv.Itoa(int(cfg.ID))},
		})
		if err != nil {
			return nil, err
		}
		n.obs = srv
	}
	return n, nil
}

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

// setRoute is the agent's Publish: it copies φ_j's hops and weights into
// the forwarding entry for j, for publishDataLocked to hand the data plane;
// no φ means no route.
func (n *Node) setRoute(j graph.NodeID, phi alloc.Split, _ []graph.NodeID) {
	if n.routes == nil {
		return
	}
	e := &n.routes[j]
	e.Dst, e.Hops, e.Weights = j, e.Hops[:0], e.Weights[:0]
	for _, sh := range phi {
		e.Hops = append(e.Hops, sh.Hop)
		e.Weights = append(e.Weights, sh.Frac)
	}
	n.republish = true
}

// sendLSU is the agent's SendLSU, called under n.mu. A missing peer means
// the link went down, and a dead link carries nothing.
func (n *Node) sendLSU(to graph.NodeID, m *lsu.Msg) {
	s := n.peers[to]
	if s == nil {
		return
	}
	f, err := wire.NewLSU(m)
	if err != nil {
		return
	}
	n.stats.lsusSent.Inc()
	n.emit(telemetry.KindLSUSend, to, float64(f.EncodedBytes()*8), "")
	n.sendLocked(s, f)
}

// sendLocked hands f to s's ARQ, or to its backlog behind a full window
// (or behind a frame the ARQ refuses, which then waits there for good). A
// backlog at maxWriteQueue overflows the session: MPDA assumes reliable
// delivery, so the link is declared dead rather than the frame dropped.
func (n *Node) sendLocked(s *session, f *wire.Frame) {
	if s.ended || s.overflow {
		return
	}
	n.touch(s)
	switch {
	case len(s.backlog) == 0 && s.arq.Send(f) == nil:
	case len(s.backlog) == maxWriteQueue:
		s.overflow = true
		n.stats.wqOverflows.Inc()
	default:
		s.backlog = append(s.backlog, f)
	}
}

// touch lists s among the sessions the current step must finish.
func (n *Node) touch(s *session) {
	if !s.touched {
		s.touched = true
		n.touched = append(n.touched, s)
	}
}

// setPeerStats installs the instrument handles for the link to peer. The
// mesh calls this at link setup; any handle may be nil.
func (n *Node) setPeerStats(peer graph.NodeID, li peerInstruments) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peerStats[peer] = li
}

// AddPeer runs a session over lane, which the node owns from here on, with
// the default ARQ: HELLOs both ways, the link cost from costOf (run under
// the node's lock; false refuses the peer and closes lane), then the link
// up until the lane dies, a BYE arrives or the peer falls silent for
// DeadAfter. The lane's reader is the session's one goroutine.
func (n *Node) AddPeer(lane transport.Packet, costOf func(peer graph.NodeID) (float64, bool)) {
	n.addPeer(lane, costOf, transport.ARQConfig{})
}

// addPeer is AddPeer with the link's ARQ configuration.
func (n *Node) addPeer(lane transport.Packet, costOf func(peer graph.NodeID) (float64, bool), arq transport.ARQConfig) {
	if s := n.attach(lane, costOf, arq); s != nil {
		go n.readLoop(s)
	}
}

// attach registers a session on lane and sends its HELLO, starting no
// goroutine: nil means the node is closed, and lane with it.
func (n *Node) attach(lane transport.Packet, costOf func(peer graph.NodeID) (float64, bool), arq transport.ARQConfig) (s *session) {
	n.step(func() {
		if n.closed {
			lane.Close()
			return
		}
		s = &session{lane: lane, costOf: costOf, arq: transport.NewARQMachine(arq)}
		n.sessions = append(n.sessions, s)
		n.sendLocked(s, wire.NewHello(n.id))
	})
	return s
}

// readLoop feeds s the datagrams its lane delivers until the lane dies.
func (n *Node) readLoop(s *session) {
	buf := make([]byte, transport.MaxDatagram)
	for {
		k, err := s.lane.ReadPacket(buf)
		if err != nil {
			n.step(func() { n.endLocked(s, "closed") })
			return
		}
		n.receive(s, buf[:k])
	}
}

// step runs fn under n.mu as one step, finishes it, and writes after
// unlocking what the sessions it touched emitted.
func (n *Node) step(fn func()) {
	n.mu.Lock()
	fn()
	ws := n.stepEndLocked()
	n.mu.Unlock()
	n.write(ws)
}

// receive steps s's ARQ with dgram and hands every in-order frame it
// releases to the session.
func (n *Node) receive(s *session, dgram []byte) {
	n.step(func() {
		if s.ended {
			return
		}
		n.touch(s)
		now := n.clk.Now()
		for _, f := range s.arq.Handle(now, dgram) {
			if s.ended || s.overflow {
				break
			}
			s.heard = now // any frame proves liveness
			if !s.up {
				n.helloLocked(s, f, now)
				continue
			}
			switch f.Type {
			case wire.TypeLSU:
				// An LSU reports its sender's own table: one that names another
				// origin would be written into that neighbor's T_k.
				if m, err := wire.LSUMsg(f); err == nil && m.From == s.id {
					n.stats.lsusRecv.Inc()
					n.agent.HandleLSU(m)
				}
			case wire.TypeBye:
				n.endLocked(s, "bye")
			default:
				// HELLO repeats and heartbeats carry no protocol payload.
			}
		}
	})
}

// helloLocked brings s up on its first frame, which must be a HELLO naming
// a router in the ID space that is neither this node nor a peer already up
// and that costOf accepts; anything else refuses the session.
func (n *Node) helloLocked(s *session, f *wire.Frame, now float64) {
	pid, err := wire.HelloNode(f)
	if err != nil || int(pid) < 0 || int(pid) >= n.cfg.Nodes || pid == n.id || n.peers[pid] != nil {
		n.endLocked(s, "")
		return
	}
	cost, ok := s.costOf(pid)
	if !ok {
		n.endLocked(s, "")
		return
	}
	s.id, s.cost, s.up = pid, cost, true
	s.beat = now + n.cfg.HeartbeatEvery
	n.peers[pid] = s
	n.npeers++
	n.stats.peerUps.Inc()
	n.stats.peersUp.Set(float64(n.npeers))
	n.emit(telemetry.KindPeerUp, pid, cost, "")
	n.agent.LinkUp(pid, cost)
}

// endLocked tears s down once: lane, peer table, agent. The node's session
// list drops it at the end of the step.
func (n *Node) endLocked(s *session, reason string) {
	if s.ended {
		return
	}
	s.ended = true
	s.lane.Close()
	if !s.up {
		return
	}
	n.peers[s.id] = nil
	n.npeers--
	n.stats.peerDowns.Inc()
	n.stats.peersUp.Set(float64(n.npeers))
	n.emit(telemetry.KindPeerDown, s.id, 0, reason)
	n.agent.LinkDown(s.id)
}

// onTimer is the clock's step: dead peers end, due heartbeats go out and
// the ARQs retransmit what is overdue.
func (n *Node) onTimer(gen uint64) {
	n.step(func() {
		if n.closed || gen != n.gen {
			return
		}
		n.timerAt = math.Inf(1)
		now := n.clk.Now()
		for _, s := range n.sessions {
			n.touch(s)
			if s.up && now >= s.heard+n.cfg.DeadAfter {
				n.endLocked(s, "timeout")
				continue
			}
			if s.up && now >= s.beat {
				n.sendLocked(s, wire.NewHeartbeat())
				s.beat = now + n.cfg.HeartbeatEvery
			}
			s.arq.Tick(now)
		}
	})
}

// stepEndLocked finishes a step: it ends the sessions the step overflowed,
// hands the data plane new routes, moves backlogs into the windows that
// have room, and takes the write turn of every touched session with
// datagrams to send, returning those for write once n.mu is released.
func (n *Node) stepEndLocked() []*session {
	// Ending a session runs LinkDown, which may touch and overflow others.
	for i := 0; i < len(n.touched); i++ {
		if s := n.touched[i]; s.overflow {
			n.endLocked(s, "overflow")
		}
	}
	n.publishDataLocked()
	now := n.clk.Now()
	var ws []*session
	for _, s := range n.touched {
		s.touched = false
		if s.ended {
			continue
		}
		for len(s.backlog) > 0 && s.arq.Send(s.backlog[0]) == nil {
			s.backlog[0] = nil
			s.backlog = s.backlog[1:]
		}
		if !s.writing {
			s.out = s.arq.Flush(now, s.out)
			if s.writing = len(s.out) > 0; s.writing {
				ws = append(ws, s)
			}
		}
	}
	n.touched = n.touched[:0]
	n.sessions = slices.DeleteFunc(n.sessions, func(s *session) bool { return s.ended })
	n.armLocked()
	return ws
}

// write is the write turn of each session in ws: it writes the datagrams
// flushed under the lock, then flushes and writes what later steps left
// to it, and lets the turn go once there is nothing more.
func (n *Node) write(ws []*session) {
	for _, s := range ws {
		// The turn is this goroutine's, so s.out is too until it lets go.
		for out := s.out; len(out) > 0; {
			for _, d := range out {
				// Best effort: a lane that fails to write is dying, and its
				// reader ends the session.
				_ = s.lane.WritePacket(d)
			}
			n.mu.Lock()
			out = nil
			if !s.ended {
				s.out = s.arq.Flush(n.clk.Now(), s.out)
				out = s.out
			}
			s.writing = len(out) > 0
			n.armLocked()
			n.mu.Unlock()
		}
	}
}

// armLocked makes the node's timer fire by the earliest session deadline
// — heartbeat, dead peer or retransmission. A timer already due sooner
// stays: firing early only re-arms.
func (n *Node) armLocked() {
	at := math.Inf(1)
	for _, s := range n.sessions {
		at = min(at, s.arq.Deadline())
		if s.up {
			at = min(at, s.beat, s.heard+n.cfg.DeadAfter)
		}
	}
	if n.closed || math.IsInf(at, 1) || at >= n.timerAt {
		return
	}
	if n.timer != nil {
		n.timer.Stop()
	}
	n.gen++
	gen := n.gen
	n.timerAt = at
	n.timer = n.clk.AfterFunc(max(at-n.clk.Now(), 0), func() { n.onTimer(gen) })
}

// ChangeCost sets the cost of the link to peer k (the live analogue of
// protonet.ChangeCost).
func (n *Node) ChangeCost(k graph.NodeID, cost float64) (err error) {
	n.step(func() {
		if int(k) < 0 || int(k) >= len(n.peers) || n.peers[k] == nil {
			err = fmt.Errorf("node %d: no live peer %d", n.id, k)
			return
		}
		n.peers[k].cost = cost
		n.agent.LinkCostChange(k, cost)
	})
	return err
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
func (n *Node) Passive() bool { return n.readiness().Passive }

// PeerCount returns the number of live peer sessions.
func (n *Node) PeerCount() int { return len(n.readiness().Peers) }

// Peers returns the live peer IDs in ascending order.
func (n *Node) Peers() []graph.NodeID {
	var ids []graph.NodeID
	for _, p := range n.readiness().Peers {
		ids = append(ids, graph.NodeID(p.ID))
	}
	return ids
}

// Outstanding sums the peers' unacknowledged transport windows: zero means
// every frame sent has reached its neighbor.
func (n *Node) Outstanding() int { return n.readiness().Outstanding }

// Summary renders this node's routing state for people (see
// RouterSummary).
func (n *Node) Summary() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return RouterSummary(n.agent.Protocol())
}

// Close ends every session with a BYE, so peers need not wait out their
// dead timers, and reaps the obs server. The BYE and whatever else the
// windows still queue go out once, best effort, before each lane closes.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	if n.timer != nil {
		n.timer.Stop()
	}
	n.gen++
	ended := n.sessions
	for _, s := range ended {
		s.ended = true
		if s.up {
			n.peers[s.id] = nil
		}
	}
	n.sessions, n.npeers = nil, 0
	n.stats.peersUp.Set(0)
	srv := n.obs
	n.obs = nil
	n.mu.Unlock()
	// Ended under the lock, the sessions are Close's alone: no step touches
	// an ended session's machine, and a write turn still sending only reads
	// its own datagrams.
	for _, s := range ended {
		if s.up && len(s.backlog) == 0 && s.arq.Send(wire.NewBye()) == nil {
			for _, d := range s.arq.Flush(n.clk.Now(), nil) {
				_ = s.lane.WritePacket(d)
			}
		}
		s.lane.Close()
	}
	// The obs server samples state through n.mu: close it outside the lock.
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

// Sample snapshots the node under its one lock: what the settle rule reads
// (phase, peers and their windows, the state digest), the routes and the
// data plane. It backs the observability plane.
func (n *Node) Sample() obs.Sample {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := n.readinessLocked()
	s.Digest = mpda.Digest(n.agent.Protocol().AppendState(nil))
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

// readiness samples, under n.mu, the fields readinessLocked fills.
func (n *Node) readiness() obs.Sample {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.readinessLocked()
}

// readinessLocked fills, under n.mu, the Sample fields Eligible reads:
// the phase and the expected and live peers with their windows.
func (n *Node) readinessLocked() obs.Sample {
	s := obs.Sample{ID: int(n.id), Passive: !n.agent.Protocol().Active(), MinPeers: n.cfg.ExpectPeers}
	for id, ps := range n.peers {
		if ps == nil {
			continue
		}
		pi := obs.Peer{ID: id, Cost: ps.cost, Outstanding: ps.arq.Outstanding(), RTO: ps.arq.RTO(), Queue: len(ps.backlog)}
		s.Outstanding += pi.Outstanding
		inst := n.peerStats[graph.NodeID(id)]
		pi.Retransmits = inst.retx.Value()
		pi.Window = inst.win.Value()
		s.Peers = append(s.Peers, pi)
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
// (mesh-wide) and each live peer's backlog depth.
func (n *Node) refreshObsMetrics() {
	if n.cfg.Trace != nil {
		n.stats.evEmitted.Set(float64(n.cfg.Trace.Emitted()))
		n.stats.evDropped.Set(float64(n.cfg.Trace.Dropped()))
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for id, s := range n.peers {
		if inst := n.peerStats[graph.NodeID(id)]; s != nil && inst.wq != nil {
			inst.wq.Set(float64(len(s.backlog)))
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

// RouterSummary renders a router's D_j (%.9g) and S_j, a line per
// destination, for people; it leaves out FD_j, the phase and the owed ACKs,
// so state is compared through mpda.Router.AppendState, not this text.
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
