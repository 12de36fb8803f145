package node

import (
	"fmt"

	"minroute/internal/dataplane"
	"minroute/internal/graph"
	"minroute/internal/lfi"
	"minroute/internal/mpda"
	"minroute/internal/obs"
	"minroute/internal/telemetry"
	"minroute/internal/transport"
)

// Fabric selects the lanes a Mesh wires its links with: one in process,
// one over sockets. Every fabric runs the same session and ARQ over them.
type Fabric string

const (
	// FabricInmem uses in-memory packet pipes — the reference lanes,
	// fastest and loss-free up to their ring.
	FabricInmem Fabric = "inmem"
	// FabricUDP binds a loopback UDP socket pair per link;
	// MeshConfig.Fault perturbs the datagrams beneath the ARQ.
	FabricUDP Fabric = "udp"
)

// MeshConfig parameterizes an in-process mesh of live nodes.
type MeshConfig struct {
	Fabric Fabric
	// Clock is shared by every node (required).
	Clock transport.Clock
	// CostOf maps a directed link to its MPDA cost (required); it has
	// protonet.BringUpAll's shape, so both runs can share one cost model.
	CostOf func(l *graph.Link) float64
	// Fault perturbs every UDP link's datagrams (both directions, per-link
	// derived seeds). Only valid with FabricUDP.
	Fault transport.Fault
	// ARQ tunes every link's retransmission layer.
	ARQ transport.ARQConfig
	// HeartbeatEvery/DeadAfter configure every node's sessions.
	HeartbeatEvery float64
	DeadAfter      float64
	// Trace, when non-nil, receives all nodes' events.
	Trace *Trace
	// Metrics, when non-nil, receives per directed link the backlog
	// gauge, an `arq.retransmits.<a>-<b>` counter and an
	// `arq.window.<a>-<b>` occupancy gauge; reads are atomic, so they may be
	// scraped while the mesh is live.
	Metrics *telemetry.Registry
	// ObsAddr, when non-empty, gives every node an observability server on
	// this address, which must carry port 0 (see ObsURLs), and a private
	// registry that per-link instruments are aliased from into Metrics.
	ObsAddr string
	// Data gives every node a forwarder on its own data port (a MemNet
	// endpoint on the inmem fabric, a UDP socket on the udp one), peered
	// with its topology neighbors and fed φ by its node. Emulated per-hop
	// latency is the link model's sizeBits/Capacity + PropDelay.
	Data bool
	// DataFault perturbs data-plane datagrams (per-node seeds; requires
	// Data). No ARQ recovers them: a lost data packet is lost.
	DataFault transport.Fault
}

// Mesh is a full topology of live nodes running in one process, each
// peered over its configured fabric. It is the live counterpart of
// protonet.Net: same routers, real transports instead of emulated queues.
type Mesh struct {
	Nodes []*Node

	regs    []*telemetry.Registry
	dataNet *transport.MemNet // the inmem fabric's data-plane switchboard
}

// dataForwarder builds node id's data-plane forwarder: a data port on the
// matching fabric, faults derived per node, and the topology's link model
// as the emulated per-hop latency.
func (m *Mesh) dataForwarder(id graph.NodeID, nn int, dir map[[2]graph.NodeID]*graph.Link, cfg MeshConfig) (*dataplane.Forwarder, error) {
	var conn transport.Medium
	if cfg.Fabric == FabricInmem || cfg.Fabric == "" {
		if m.dataNet == nil {
			m.dataNet = transport.NewMemNet()
		}
		conn = m.dataNet.Bind()
	} else {
		c, err := transport.BindUDP("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		conn = c
	}
	f := cfg.DataFault
	f.Seed = cfg.DataFault.Seed ^ (uint64(id)<<8 | 3)
	conn = transport.WithFaults(conn, f)
	var reg *telemetry.Registry
	if m.regs != nil {
		reg = m.regs[id]
	}
	fc := dataplane.Config{
		Self: id, Nodes: nn, Conn: conn, Clock: cfg.Clock, Metrics: reg,
		LatencyOf: func(next graph.NodeID, sizeBits uint32) float64 {
			l := dir[[2]graph.NodeID{id, next}]
			if l == nil {
				return 0
			}
			return l.PropDelay + float64(sizeBits)/l.Capacity
		},
	}
	return dataplane.New(fc), nil
}

// NewMesh builds one Node per graph node and connects every duplex link
// over the configured fabric. The returned mesh is converging: use
// AwaitConverged to wait for quiescence.
func NewMesh(g *graph.Graph, cfg MeshConfig) (*Mesh, error) {
	if cfg.Clock == nil {
		return nil, fmt.Errorf("node: MeshConfig.Clock is required")
	}
	if cfg.CostOf == nil {
		return nil, fmt.Errorf("node: MeshConfig.CostOf is required")
	}
	switch cfg.Fabric {
	case FabricInmem, "", FabricUDP:
	default:
		return nil, fmt.Errorf("node: unknown fabric %q", cfg.Fabric)
	}
	if cfg.Fault.Active() && cfg.Fabric != FabricUDP {
		return nil, fmt.Errorf("node: fault injection requires FabricUDP, not %q", cfg.Fabric)
	}
	nn := g.NumNodes()
	m := &Mesh{Nodes: make([]*Node, nn)}

	// Index directed links and count expected degrees first: a node's
	// degree is its readiness peer floor, so it must be known at
	// construction time.
	dir := make(map[[2]graph.NodeID]*graph.Link)
	degree := make([]int, nn)
	for _, l := range g.Links() {
		dir[[2]graph.NodeID{l.From, l.To}] = l
		degree[l.From]++
	}

	if cfg.ObsAddr != "" {
		m.regs = make([]*telemetry.Registry, nn)
		for i := range m.regs {
			m.regs[i] = telemetry.NewRegistry(0)
		}
	}
	if cfg.DataFault.Active() && !cfg.Data {
		return nil, fmt.Errorf("node: DataFault requires Data")
	}
	for i := 0; i < nn; i++ {
		nc := Config{
			ID: graph.NodeID(i), Nodes: nn, Clock: cfg.Clock,
			HeartbeatEvery: cfg.HeartbeatEvery, DeadAfter: cfg.DeadAfter,
			Trace:       cfg.Trace,
			ObsAddr:     cfg.ObsAddr,
			ExpectPeers: degree[i],
		}
		if m.regs != nil {
			nc.Metrics = m.regs[i]
		}
		if cfg.Data {
			fwd, err := m.dataForwarder(graph.NodeID(i), nn, dir, cfg)
			if err != nil {
				m.Close()
				return nil, err
			}
			nc.Data = fwd
		}
		n, err := New(nc)
		if err != nil {
			if nc.Data != nil {
				nc.Data.Close() // not yet owned by any node
			}
			m.Close()
			return nil, err
		}
		m.Nodes[i] = n
	}
	if cfg.Data {
		// Peer the data ports along topology links, with a per-directed-link
		// data.tx counter mirroring the ARQ instrument pattern.
		for _, l := range g.Links() {
			var tx *telemetry.Counter
			if cfg.Metrics != nil || m.regs != nil {
				tx = m.counter(l.From, fmt.Sprintf("data.tx.%d-%d", l.From, l.To), cfg.Metrics)
			}
			m.Nodes[l.From].DataPlane().SetPeer(l.To, m.Nodes[l.To].DataPlane().LocalAddr(), tx)
		}
	}
	costTo := func(from graph.NodeID) func(peer graph.NodeID) (float64, bool) {
		return func(peer graph.NodeID) (float64, bool) {
			l := dir[[2]graph.NodeID{from, peer}]
			if l == nil {
				return 0, false
			}
			return cfg.CostOf(l), true
		}
	}

	for _, l := range g.Links() {
		a, b := l.From, l.To
		if a >= b {
			continue // one lane pair per duplex link
		}
		la, lb, err := lanes(a, b, cfg)
		if err != nil {
			m.Close()
			return nil, err
		}
		arqA, arqB := cfg.ARQ, cfg.ARQ
		arqA.Stats = arqStats(a, b, m.linkInstruments(a, b, cfg), cfg)
		arqB.Stats = arqStats(b, a, m.linkInstruments(b, a, cfg), cfg)
		m.Nodes[a].addPeer(la, costTo(a), arqA)
		m.Nodes[b].addPeer(lb, costTo(b), arqB)
	}
	return m, nil
}

// lanes builds the two ends of one duplex link between a and b: an
// in-memory pipe, or a UDP socket pair with per-link per-direction fault
// seeds derived from the configured base seed, so two meshes with equal
// MeshConfig see identical perturbation sequences.
func lanes(a, b graph.NodeID, cfg MeshConfig) (la, lb transport.Packet, err error) {
	if cfg.Fabric == FabricInmem || cfg.Fabric == "" {
		la, lb = transport.PacketPipe()
		return la, lb, nil
	}
	pa, err := transport.BindUDP("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	pb, err := transport.BindUDP("127.0.0.1:0")
	if err != nil {
		pa.Close()
		return nil, nil, err
	}
	if err = pa.Connect(pb.LocalAddr()); err == nil {
		err = pb.Connect(pa.LocalAddr())
	}
	if err != nil {
		pa.Close()
		pb.Close()
		return nil, nil, err
	}
	fa, fb := cfg.Fault, cfg.Fault
	fa.Seed = cfg.Fault.Seed ^ (uint64(a)<<20 | uint64(b)<<4 | 1)
	fb.Seed = cfg.Fault.Seed ^ (uint64(a)<<20 | uint64(b)<<4 | 2)
	return transport.WithFaults(pa, fa), transport.WithFaults(pb, fb), nil
}

// linkInstruments resolves one directed link's instrument handles, once, at
// link setup on the mesh-building goroutine: name formatting and registry
// lookups never run on a path reachable per frame or per retransmission,
// and arqStats's callbacks write through the pointers alone. The handles
// are also installed on the owning node for its /peers dump.
func (m *Mesh) linkInstruments(local, remote graph.NodeID, cfg MeshConfig) peerInstruments {
	var li peerInstruments
	if cfg.Metrics == nil && m.regs == nil {
		return li
	}
	li.retx = m.counter(local, fmt.Sprintf("arq.retransmits.%d-%d", local, remote), cfg.Metrics)
	li.win = m.gauge(local, fmt.Sprintf("arq.window.%d-%d", local, remote), cfg.Metrics)
	li.wq = m.gauge(local, fmt.Sprintf("session.writeq.%d-%d", local, remote), cfg.Metrics)
	m.Nodes[local].setPeerStats(remote, li)
	return li
}

// counter and gauge make the named instrument of node local. When the mesh
// runs per-node registries (ObsAddr set), the node's registry creates it
// and the mesh-wide one aliases it, so one atomic serves both /metrics and
// the exported snapshot; otherwise the mesh-wide registry alone holds it,
// and with neither it is nil.
func (m *Mesh) counter(local graph.NodeID, name string, mesh *telemetry.Registry) *telemetry.Counter {
	if m.regs == nil {
		return mesh.Counter(name)
	}
	c := m.regs[local].Counter(name)
	mesh.RegisterCounter(name, c)
	return c
}

func (m *Mesh) gauge(local graph.NodeID, name string, mesh *telemetry.Registry) *telemetry.Gauge {
	if m.regs == nil {
		return mesh.Gauge(name)
	}
	g := m.regs[local].Gauge(name)
	mesh.RegisterGauge(name, g)
	return g
}

// arqStats builds the observer for one directed link, bridging the
// transport's stats hooks into the mesh's trace and the precomputed
// instruments. Returns nil (observation fully disabled) when neither
// sink is configured; the enabled metrics-only path is alloc-free (see
// TestARQStatsEnabledZeroAlloc).
func arqStats(local, remote graph.NodeID, li peerInstruments, cfg MeshConfig) *transport.ARQStats {
	if cfg.Trace == nil && li.retx == nil {
		return nil
	}
	retx, occ := li.retx, li.win
	trace, clk := cfg.Trace, cfg.Clock
	return &transport.ARQStats{
		Retransmit: func(seq uint32, rto float64, fast bool) {
			retx.Inc()
			if trace != nil {
				ev := telemetry.NewEvent(clk.Now(), telemetry.KindARQRetransmit, local)
				ev.Peer = remote
				ev.Value = rto
				if fast {
					ev.Label = "fast"
				} else {
					ev.Label = "rto"
				}
				trace.Emit(ev)
			}
		},
		RTOUpdate: func(srtt, rttvar, rto float64) {
			if trace != nil {
				ev := telemetry.NewEvent(clk.Now(), telemetry.KindARQRTOUpdate, local)
				ev.Peer = remote
				ev.Value = rto
				trace.Emit(ev)
			}
		},
		Window: func(occupied, limit int) {
			occ.Set(float64(occupied))
		},
	}
}

// ObsURLs returns every node's observability base URL in ID order, or
// nil when MeshConfig.ObsAddr was not set.
func (m *Mesh) ObsURLs() []string {
	if m.regs == nil {
		return nil
	}
	urls := make([]string, len(m.Nodes))
	for i, n := range m.Nodes {
		if n != nil {
			urls[i] = n.ObsURL()
		}
	}
	return urls
}

// Ready reports whether every node has at least its topology degree of
// peer sessions up (obs.Sample.Eligible's definition of fully peered).
func (m *Mesh) Ready() bool {
	return m.every(func(s obs.Sample) bool { return len(s.Peers) >= s.MinPeers })
}

// Passive reports whether every router is in the PASSIVE phase.
func (m *Mesh) Passive() bool { return m.every(func(s obs.Sample) bool { return s.Passive }) }

// Quiescent reports whether every router is PASSIVE and every transport
// window has drained — the live analogue of protonet's empty queues.
func (m *Mesh) Quiescent() bool {
	return m.every(func(s obs.Sample) bool { return s.Passive && s.Outstanding == 0 })
}

// every reports whether f holds of every node's readiness sample.
func (m *Mesh) every(f func(obs.Sample) bool) bool {
	for _, n := range m.Nodes {
		if !f(n.readiness()) {
			return false
		}
	}
	return true
}

// Hash digests every router's state encoding, in ID order, for
// cross-validation against a simulator reference.
func (m *Mesh) Hash() string {
	_, _, digest := m.poll()
	return digest
}

// poll is one settle-rule poll of the whole mesh, each node read under its
// own lock: steady and drained when every node is, and the digest of the
// routers' state encodings concatenated in ID order.
func (m *Mesh) poll() (steady, drained bool, digest string) {
	steady, drained = true, true
	var state []byte
	for _, n := range m.Nodes {
		n.mu.Lock()
		s := n.readinessLocked()
		steady = s.Steady() && steady
		drained = s.Drained() && drained
		state = n.agent.Protocol().AppendState(state)
		n.mu.Unlock()
	}
	return steady, drained, mpda.Digest(state)
}

// tableView is a static lfi.RouterView snapshot of one live router,
// taken under its node's lock so the oracle never races the protocol.
type tableView struct {
	id   graph.NodeID
	fd   []float64
	succ [][]graph.NodeID
}

func (v *tableView) ID() graph.NodeID                         { return v.id }
func (v *tableView) FD(j graph.NodeID) float64                { return v.fd[j] }
func (v *tableView) Successors(j graph.NodeID) []graph.NodeID { return v.succ[j] }

// CheckLoopFree audits the mesh's successor graph with the loop-freedom
// oracle: per destination, the union of the successor sets must be
// acyclic. The data plane forwards along exactly these sets.
func (m *Mesh) CheckLoopFree() error {
	nn := len(m.Nodes)
	views := make(map[graph.NodeID]lfi.RouterView, nn)
	for _, n := range m.Nodes {
		v := &tableView{id: n.id, fd: make([]float64, nn), succ: make([][]graph.NodeID, nn)}
		n.mu.Lock()
		r := n.agent.Protocol()
		for j := 0; j < nn; j++ {
			jid := graph.NodeID(j)
			v.fd[j] = r.FD(jid)
			v.succ[j] = append([]graph.NodeID(nil), r.Successors(jid)...)
		}
		n.mu.Unlock()
		views[n.id] = v
	}
	return lfi.CheckAllDestinations(nn, views)
}

// AwaitConverged polls until the mesh settles under obs.Settle: every node
// fully peered and PASSIVE and Hash unchanged for obs.StablePolls polls in
// a row, every window drained at the last. sleep runs between polls (a real sleep of
// obs.PollEvery, or an Advance of a virtual clock); it fails after maxPolls.
func (m *Mesh) AwaitConverged(maxPolls int, sleep func()) error {
	if !obs.Await(m.poll, maxPolls, sleep) {
		return fmt.Errorf("node: mesh did not converge within %d polls", maxPolls)
	}
	return nil
}

// Close tears every node down.
func (m *Mesh) Close() {
	for _, n := range m.Nodes {
		if n != nil {
			n.Close()
		}
	}
}
