// Package router implements the full simulated router of the paper's
// framework: an MPDA protocol instance for loop-free multipath routes, the
// IH/AH traffic-allocation heuristics, two-timescale link-cost measurement,
// and the forwarding plane, all driven by the discrete-event engine.
//
// Section 4.2 of the paper: "link costs measured over short intervals of
// length Ts are used for routing-parameter computation and link costs
// measured over longer intervals of length Tl are used for routing-path
// computation. [...] Tl and Ts are local constants that are set
// independently at each router" — here each node owns its own timers, with
// randomly phased long-term updates "because of the problems that would
// result due to synchronization of updates".
//
// Per-neighbor state is one link record in a slice ascending by neighbor
// ID, and both clocks price a window through the one measure routine. The
// control half touches the simulator only through des.Engine (clock,
// origin, RNG) and the ports' DataPackets counters.
//
// Three forwarding modes reproduce the paper's three schemes:
//
//	ModeMP     multipath over S_j with IH/AH routing parameters
//	ModeSP     single path: all traffic to the best successor
//	ModeStatic externally installed routing parameters (used to evaluate
//	           Gallager's OPT solution under identical packet dynamics)
package router

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"minroute/internal/alloc"
	"minroute/internal/des"
	"minroute/internal/eventq"
	"minroute/internal/graph"
	"minroute/internal/linkcost"
	"minroute/internal/lsu"
	"minroute/internal/mpda"
	"minroute/internal/numeric"
	"minroute/internal/rng"
	"minroute/internal/telemetry"
)

// Mode selects the forwarding discipline.
type Mode int

// Forwarding modes.
const (
	ModeMP Mode = iota
	ModeSP
	ModeStatic
	// ModeECMP restricts multipath to equal-cost paths with even splits —
	// the OSPF behaviour the paper contrasts against ("OSPF permits
	// multiple paths to a destination only when they have the same
	// length"). Included as an extra baseline for ablations.
	ModeECMP
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeMP:
		return "MP"
	case ModeSP:
		return "SP"
	case ModeStatic:
		return "STATIC"
	case ModeECMP:
		return "ECMP"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// The cost-estimation constants no experiment varies (DESIGN.md §6).
const (
	// longSmoothing is the EWMA weight folding each Tl window's measured
	// marginal into the advertised long-term cost.
	longSmoothing = 0.5
	// shortSmoothing is the EWMA weight for each Ts window's sample.
	shortSmoothing = 0.5
	// utilizationCap bounds the utilization used when computing link costs.
	// The raw M/M/1 marginal explodes near saturation (seconds per packet
	// against an idle cost under a millisecond), which turns any momentarily
	// hot link infinitely repulsive and induces the classic delay-metric
	// route oscillation; the revised-ARPANET-metric line of work the paper
	// cites ([18], [13]) bounds the metric's dynamic range for exactly this
	// reason. 0.9 caps the advertised marginal at ~100x idle.
	utilizationCap = 0.9
)

// Config tunes a Node: what the commands and experiments actually vary.
// The zero value is not valid; use Defaults.
type Config struct {
	Mode Mode
	// Tl is the long-term (routing path) update interval in seconds.
	Tl float64
	// Ts is the short-term (routing parameter) update interval in seconds.
	Ts float64
	// MeanPacketBits calibrates packet-rate conversions for the M/M/1 cost.
	MeanPacketBits float64
	// UseOnlineEstimator selects the PA-style estimator (measured sojourn
	// and service times) instead of the closed-form M/M/1 marginal.
	UseOnlineEstimator bool
	// HopLimit drops packets that exceed this many forwarding steps.
	HopLimit int
	// AHDamping selects the damped AH variant with the given β (see
	// alloc.AdjustDamped). Zero or negative selects the literal Fig. 7
	// rule (alloc.Adjust), kept for ablation.
	AHDamping float64
	// CostMeasureWindow, when positive and smaller than Tl, measures the
	// long-term link flow over only the trailing window of each Tl period
	// instead of the whole period (ARPANET-style fixed measurement window:
	// the update period then controls staleness only, not averaging).
	CostMeasureWindow float64
}

// Defaults returns the configuration used by the paper's headline runs:
// MP-TL-10-TS-2 with 1000-byte mean packets.
func Defaults() Config {
	return Config{
		Mode:           ModeMP,
		Tl:             10,
		Ts:             2,
		MeanPacketBits: 8000,
		HopLimit:       64,
		AHDamping:      0.5,
	}
}

// link is everything a node keeps about one attached neighbor.
type link struct {
	to   graph.NodeID
	port *des.Port
	// short is the short-term marginal cost, refreshed every Ts.
	short float64
	// long is the long-term cost EWMA, advertised to MPDA every Tl.
	long *linkcost.Smoother
	// tsSnap and tlSnap are the port's DataPackets count when the current
	// short-term and long-term measurement windows opened.
	tsSnap, tlSnap int64
}

// Node is one simulated router.
type Node struct {
	id   graph.NodeID
	eng  *des.Engine
	cfg  Config
	prng *rng.Source
	send mpda.Sender

	proto *mpda.Router
	// links holds the attached neighbors in ascending ID order; all periodic
	// work iterates it in that order so FP effects are deterministic.
	links []link
	// down is true between Crash and Restart: the node forwards nothing,
	// processes no control traffic, and its timers are disarmed.
	down bool
	// Pending timer handles, canceled on Crash so a restarted node never
	// runs two timer chains.
	tsTimer, tlTimer, tlSnapTimer eventq.Handle
	// lastTl is when the current long-term measurement window opened.
	lastTl float64

	// phi[j] holds the current routing parameters for destination j.
	phi []alloc.Params
	// phiSucc[j] is a copy of the successor set phi[j] was built from — and
	// so, ascending, phi[j]'s keys: IH writes one entry per successor and AH
	// only rewrites them.
	phiSucc [][]graph.NodeID

	// staticPhi, in ModeStatic, holds the externally installed parameters
	// and staticKeys[j] the keys of staticPhi[j], ascending.
	staticPhi  []alloc.Params
	staticKeys [][]graph.NodeID

	// ecmp is the forwarding path's scratch for the equal-cost set.
	ecmp []graph.NodeID

	// OnArrive is invoked for every data packet whose destination is this
	// node (set by the network assembly).
	OnArrive func(pkt *des.Packet)
	// OnAlloc, when set, observes every routing-parameter step — each IH
	// build and each AH adjustment — with the destination, the parameters
	// just produced, and the successor set they must cover. The φ-simplex
	// oracle (Property 1: support ⊆ S_j, φ ≥ 0, Σφ = 1) hooks here.
	OnAlloc func(j graph.NodeID, phi alloc.Params, succ []graph.NodeID)

	// tel, when non-nil, instruments the control plane: phase spans, LSU
	// receive/ack events, table commits, allocation steps, and drop
	// instants. Installed via SetTelemetry; chaos oracles keep OnAlloc to
	// themselves, so telemetry emits from inside the node instead.
	tel *telemetry.NodeProbes
	// activeSince is when the router last entered the ACTIVE phase; the
	// PASSIVE edge carries the span duration.
	activeSince float64

	// Counters.
	ForwardedPackets int64
	DroppedNoRoute   int64
	DroppedHopLimit  int64
	DroppedQueue     int64
	// DroppedDown counts data packets that reached the node while it was
	// crashed. Control packets a crashed node ignores are not counted: the
	// conservation ledger balances data traffic only, and control-plane loss
	// at a dead node is just protocol noise.
	DroppedDown int64
}

// New constructs a node. Ports must be attached before Start.
func New(eng *des.Engine, id graph.NodeID, numNodes int, cfg Config, sendLSU mpda.Sender) *Node {
	return &Node{
		id:      id,
		eng:     eng,
		cfg:     cfg,
		prng:    eng.RNG().Split(uint64(id) + 1000),
		send:    sendLSU,
		proto:   mpda.NewRouter(id, numNodes, sendLSU),
		phi:     make([]alloc.Params, numNodes),
		phiSucc: make([][]graph.NodeID, numNodes),
	}
}

// ID returns the node's address.
func (n *Node) ID() graph.NodeID { return n.id }

// Protocol exposes the MPDA instance (for invariant checks and inspection).
func (n *Node) Protocol() *mpda.Router { return n.proto }

// AttachPort registers the outgoing port toward neighbor k (replacing the
// port of an already attached k).
func (n *Node) AttachPort(k graph.NodeID, p *des.Port) {
	i, dup := n.linkIndex(k)
	if !dup {
		n.links = slices.Insert(n.links, i, link{to: k})
	}
	n.links[i].port = p
	if n.cfg.UseOnlineEstimator {
		mu := linkcost.KnownMu(p.Capacity, n.cfg.MeanPacketBits)
		p.Estimator = linkcost.NewOnlineEstimator(p.Prop, 1/mu)
	}
}

// linkIndex finds neighbor k in links: its position and true, or where it
// would be inserted and false.
func (n *Node) linkIndex(k graph.NodeID) (int, bool) {
	i := sort.Search(len(n.links), func(i int) bool { return n.links[i].to >= k })
	return i, i < len(n.links) && n.links[i].to == k
}

// link returns the record of neighbor k, nil when no port leads there.
func (n *Node) link(k graph.NodeID) *link {
	if i, ok := n.linkIndex(k); ok {
		return &n.links[i]
	}
	return nil
}

// InstallStatic installs fixed routing parameters for ModeStatic. phi[j]
// holds the fractions this node uses toward destination j; the node does
// not expect them to change once installed.
func (n *Node) InstallStatic(phi []alloc.Params) {
	n.staticPhi = phi
	n.staticKeys = make([][]graph.NodeID, len(phi))
	for j, p := range phi {
		n.staticKeys[j] = p.Keys()
	}
}

// SetTelemetry attaches control-plane instrumentation (shared by all nodes
// of a simulation). Call before Start.
func (n *Node) SetTelemetry(tp *telemetry.NodeProbes) {
	n.tel = tp
	n.installProtoHooks()
}

// installProtoHooks wires the MPDA observer hooks to the telemetry sink.
// Restart builds a fresh protocol instance, so it must re-install them.
func (n *Node) installProtoHooks() {
	if n.tel == nil {
		return
	}
	n.proto.OnPhase = func(active bool) {
		now := n.eng.Now()
		if active {
			n.activeSince = now
			n.tel.Tracer.Emit(telemetry.NewEvent(now, telemetry.KindPhaseActive, n.id))
			return
		}
		ev := telemetry.NewEvent(now, telemetry.KindPhasePassive, n.id)
		ev.Value = now - n.activeSince
		n.tel.Tracer.Emit(ev)
		n.tel.ActiveDur.ObserveSlot(int(n.id), now, ev.Value)
	}
	n.proto.OnCommit = func(changed int) {
		now := n.eng.Now()
		ev := telemetry.NewEvent(now, telemetry.KindTableCommit, n.id)
		ev.Value = float64(changed)
		n.tel.Tracer.Emit(ev)
		n.tel.Converge.CommitSlot(int(n.id), now)
	}
}

// allocStep reports one routing-parameter step for destination j — an IH
// build or an AH adjustment, over successor set succ — to the OnAlloc
// observer and the telemetry trace, where Value is the allocation spread
// (0 = single path).
func (n *Node) allocStep(k telemetry.Kind, j graph.NodeID, succ []graph.NodeID) {
	if n.OnAlloc != nil {
		n.OnAlloc(j, n.phi[j], succ)
	}
	if n.tel == nil {
		return
	}
	ev := telemetry.NewEvent(n.eng.Now(), k, n.id)
	ev.Dst = j
	ev.Value = alloc.Spread(n.phi[j])
	n.tel.Tracer.Emit(ev)
}

// Start brings up the adjacent links whose port is up at their idle costs,
// opens both measurement windows at the current instant, and schedules the
// measurement timers with random phases.
func (n *Node) Start() {
	// The whole boot sequence runs under the router's own origin priority:
	// Start runs from harness context (boot, or a chaos Restart), and
	// inheriting the harness origin would make the boot emissions and the
	// timer chains' equal-time ordering depend on who restarted the node —
	// and on which shard's tracer recorded it — rather than on the node
	// itself.
	n.eng.WithOrigin(des.PriRouter(uint64(n.id)), func() {
		// After an outage the windows must not straddle it: both start from
		// the port counters as they stand.
		n.openTlWindow()
		for i := range n.links {
			l := &n.links[i]
			l.tsSnap = l.port.DataPackets
			c := n.costAt(l.port, 0)
			l.short = c
			l.long = linkcost.NewSmoother(longSmoothing)
			l.long.Update(c)
			// A restart can find a neighbor crashed or the link failed;
			// MPDA must not believe a link that cannot carry its LSUs.
			if !l.port.Down() {
				n.proto.LinkUp(l.to, quantizeCost(c))
			}
		}
		n.refreshAllocations()
		if n.cfg.Ts > 0 {
			// The randomly phased first window is shorter than Ts but is
			// still priced as a full one: dividing by its true length would
			// move every DES golden for one tick per boot.
			n.tsTimer = n.eng.After(n.cfg.Ts*n.prng.Float64(), n.tsTick)
		}
		if n.cfg.Tl > 0 {
			// "The long-term update periods should be phased randomly at each
			// router" — first firing lands uniformly inside one Tl period.
			n.tlTimer = n.eng.After(n.cfg.Tl*n.prng.Float64(), n.tlTick)
		}
	})
}

// Crash takes the node down hard: timers are disarmed and all traffic is
// dropped until Restart. The protocol state is abandoned where it stands —
// a restarted router remembers nothing, exactly like a real reboot.
func (n *Node) Crash() {
	if n.down {
		return
	}
	n.down = true
	n.eng.Cancel(n.tsTimer)
	n.eng.Cancel(n.tlTimer)
	n.eng.Cancel(n.tlSnapTimer)
}

// Restart boots a crashed node from scratch: a fresh MPDA instance, empty
// routing parameters, and measurement windows starting now. Adjacent links
// are announced at their idle costs by the usual Start path; neighbors learn
// of the resurrection through core.RestartNode (LinkRecovered on their side).
func (n *Node) Restart() {
	if !n.down {
		return
	}
	n.down = false
	n.proto = mpda.NewRouter(n.id, len(n.phi), n.send)
	n.installProtoHooks()
	clear(n.phi)
	clear(n.phiSucc)
	n.Start()
}

// Down reports whether the node is crashed.
func (n *Node) Down() bool { return n.down }

// costAt is the M/M/1 marginal cost of port p at a flow of lambda packets
// per second, with the utilization held at utilizationCap: 0 gives the idle
// cost, +Inf the ceiling the cap allows.
func (n *Node) costAt(p *des.Port, lambda float64) float64 {
	mu := linkcost.KnownMu(p.Capacity, n.cfg.MeanPacketBits)
	if lambda > utilizationCap*mu {
		lambda = utilizationCap * mu
	}
	return linkcost.MM1Marginal(lambda, mu, p.Prop)
}

// measure prices port p after it carried the given number of data packets
// over a window of the given length in seconds — the one cost measurement
// both clocks use. ok is false for a window of no length: nothing was
// measured and the caller keeps the cost it has.
func (n *Node) measure(p *des.Port, packets int64, window float64) (c float64, ok bool) {
	if window <= 0 {
		return 0, false
	}
	return n.costAt(p, float64(packets)/window), true
}

// quantizeCost rounds to 0.1 µs so identical loads advertise identical
// costs and FP dust cannot force spurious LSU floods.
func quantizeCost(c float64) float64 { return math.Round(c*1e7) / 1e7 }

// tsTick performs the short-term measurement and runs heuristic AH.
func (n *Node) tsTick() {
	for i := range n.links {
		l := &n.links[i]
		cur := l.port.DataPackets
		packets := cur - l.tsSnap
		l.tsSnap = cur
		var c float64
		if n.cfg.UseOnlineEstimator {
			c = math.Min(l.port.Estimator.Take(), n.costAt(l.port, math.Inf(1)))
		} else {
			var ok bool
			if c, ok = n.measure(l.port, packets, n.cfg.Ts); !ok {
				continue
			}
		}
		l.short += shortSmoothing * (c - l.short)
		if n.cfg.UseOnlineEstimator {
			// The estimator consumes its window here; fold it into the
			// long-term EWMA since tlTick cannot re-measure it.
			l.long.Update(l.short)
		}
	}
	if n.cfg.Mode == ModeMP {
		for j := range n.phi {
			if len(n.phi[j]) == 0 {
				continue
			}
			jid := graph.NodeID(j)
			succ := n.proto.Successors(jid)
			if len(succ) < 2 {
				continue
			}
			if n.cfg.AHDamping > 0 {
				alloc.AdjustDamped(n.phi[j], succ, n.shortDist(jid), n.cfg.AHDamping)
			} else {
				alloc.Adjust(n.phi[j], succ, n.shortDist(jid))
			}
			n.allocStep(telemetry.KindAllocAdjust, jid, succ)
		}
	}
	n.tsTimer = n.eng.After(n.cfg.Ts, n.tsTick)
}

// shortDist is the AH distance function: D_jk + l_ik with the short-term
// link cost.
func (n *Node) shortDist(j graph.NodeID) alloc.DistFunc {
	return func(k graph.NodeID) float64 {
		l := n.link(k)
		if l == nil {
			return math.Inf(1)
		}
		return n.proto.Tables().NbrDist(j, k) + l.short
	}
}

// tlTick measures each adjacent link's flow over the elapsed long-term
// window ("link costs measured over longer intervals of length Tl are used
// for routing-path computation"), folds it into the advertised-cost EWMA,
// and feeds any changes into MPDA.
func (n *Node) tlTick() {
	elapsed := n.eng.Now() - n.lastTl
	for i := range n.links {
		l := &n.links[i]
		if !n.cfg.UseOnlineEstimator {
			if c, ok := n.measure(l.port, l.port.DataPackets-l.tlSnap, elapsed); ok {
				l.long.Update(c)
			}
		}
		c := quantizeCost(l.long.Value())
		//lint:floateq-ok change detection between quantized costs; quantization makes equality exact
		if cur, ok := n.proto.Tables().AdjCost(l.to); !ok || cur != c {
			n.proto.LinkCostChange(l.to, c)
		}
	}
	n.openTlWindow()
	n.refreshAllocations()
	n.tlTimer = n.eng.After(n.cfg.Tl, n.tlTick)
	// With a fixed cost window configured, re-open the window that much
	// before the next tick so it sees only the trailing part of the period.
	if w := n.cfg.CostMeasureWindow; w > 0 && w < n.cfg.Tl {
		n.tlSnapTimer = n.eng.After(n.cfg.Tl-w, n.openTlWindow)
	}
}

// openTlWindow starts the long-term measurement window at the current
// instant and port counters.
func (n *Node) openTlWindow() {
	n.lastTl = n.eng.Now()
	for i := range n.links {
		n.links[i].tlSnap = n.links[i].port.DataPackets
	}
}

// HandleControl processes a received control packet (a marshaled LSU).
// Crashed nodes ignore control traffic entirely.
func (n *Node) HandleControl(pkt *des.Packet) {
	if n.down {
		return
	}
	buf, ok := pkt.Control.([]byte)
	if !ok {
		return
	}
	m, err := lsu.Unmarshal(buf)
	if err != nil {
		// A corrupt LSU would violate the reliable-link assumption; surface
		// loudly in simulation rather than limping on.
		panic("router: corrupt LSU: " + err.Error())
	}
	if n.tel != nil {
		now := n.eng.Now()
		ev := telemetry.NewEvent(now, telemetry.KindLSURecv, n.id)
		ev.Peer = m.From
		ev.Value = float64(len(m.Entries))
		n.tel.Tracer.Emit(ev)
		if m.Ack {
			ack := telemetry.NewEvent(now, telemetry.KindLSUAck, n.id)
			ack.Peer = m.From
			n.tel.Tracer.Emit(ack)
		}
	}
	n.proto.HandleLSU(m)
	n.refreshAllocations()
}

// LinkFailed tells the protocol an adjacent link went down. Crashed nodes
// have no protocol to tell.
func (n *Node) LinkFailed(k graph.NodeID) {
	if n.down {
		return
	}
	// Like Start, this is a harness-context entry point (core fault
	// injection): the protocol reaction — LSU floods, table commits, their
	// telemetry — must carry the router's own origin, not the injector's.
	n.eng.WithOrigin(des.PriRouter(uint64(n.id)), func() {
		n.proto.LinkDown(k)
		n.refreshAllocations()
	})
}

// LinkRecovered tells the protocol an adjacent link came back.
func (n *Node) LinkRecovered(k graph.NodeID) {
	l := n.link(k)
	if n.down || l == nil {
		return
	}
	n.eng.WithOrigin(des.PriRouter(uint64(n.id)), func() {
		c := n.costAt(l.port, 0)
		l.short = c
		l.long.Update(c)
		n.proto.LinkUp(k, quantizeCost(c))
		n.refreshAllocations()
	})
}

// refreshAllocations re-runs IH for every destination whose successor set
// changed since its parameters were last built (paper: "When S_j is
// computed for the first time or recomputed again due to long-term route
// changes, traffic should be freshly distributed" by IH). Only a set the
// protocol re-derived since the last refresh can have; they come ascending.
func (n *Node) refreshAllocations() {
	if n.cfg.Mode != ModeMP {
		return
	}
	for _, j := range n.proto.TakeMoved() {
		if succ := n.proto.Successors(j); j != n.id && !slices.Equal(succ, n.phiSucc[j]) {
			n.buildIH(j, succ)
		}
	}
}

// buildIH distributes destination j's traffic afresh over succ by heuristic
// IH (no parameters for an empty set) and records the set they were built
// from.
func (n *Node) buildIH(j graph.NodeID, succ []graph.NodeID) {
	n.phiSucc[j] = append(n.phiSucc[j][:0], succ...)
	n.phi[j] = nil
	if len(succ) > 0 {
		n.phi[j] = alloc.Initial(succ, n.shortDist(j))
	}
	n.allocStep(telemetry.KindAllocInit, j, succ)
}

// HandleData forwards (or delivers) a data packet. The node takes ownership:
// delivered and dropped packets are recycled into the engine's packet pool
// (observers like OnArrive must not retain the pointer past their return).
func (n *Node) HandleData(pkt *des.Packet) {
	if n.down {
		n.drop(&n.DroppedDown, telemetry.KindDropDown, pkt)
		return
	}
	if pkt.Dst == n.id {
		if n.OnArrive != nil {
			n.OnArrive(pkt)
		}
		n.eng.FreePacket(pkt)
		return
	}
	if pkt.Hops >= n.cfg.HopLimit {
		n.drop(&n.DroppedHopLimit, telemetry.KindDropHopLimit, pkt)
		return
	}
	// No successor, or (static routes only) one no port leads to.
	l := n.link(n.pickNextHop(pkt.Dst))
	if l == nil {
		n.drop(&n.DroppedNoRoute, telemetry.KindDropNoRoute, pkt)
		return
	}
	pkt.Hops++
	if !l.port.Send(pkt) {
		n.drop(&n.DroppedQueue, telemetry.KindDropQueue, pkt)
		return
	}
	n.ForwardedPackets++
}

// drop counts, traces and recycles one data packet the node will not
// forward.
func (n *Node) drop(counter *int64, k telemetry.Kind, pkt *des.Packet) {
	*counter++
	if n.tel != nil {
		ev := telemetry.NewEvent(n.eng.Now(), k, n.id)
		ev.Dst = pkt.Dst
		ev.Flow = int32(pkt.FlowID)
		ev.Pkt = uint32(pkt.Serial)
		ev.Value = 1
		n.tel.Tracer.Emit(ev)
	}
	n.eng.FreePacket(pkt)
}

// pickNextHop chooses the outgoing neighbor for destination j under the
// configured mode.
func (n *Node) pickNextHop(j graph.NodeID) graph.NodeID {
	switch n.cfg.Mode {
	case ModeSP:
		return n.proto.BestSuccessor(j)
	case ModeECMP:
		n.ecmp = n.equalCostSuccessors(j, n.ecmp[:0])
		if len(n.ecmp) == 0 {
			return graph.None
		}
		return n.ecmp[n.prng.Intn(len(n.ecmp))]
	case ModeStatic:
		if n.staticPhi == nil {
			return graph.None
		}
		return weightedPick(n.prng, n.staticPhi[j], n.staticKeys[j])
	default: // ModeMP
		if len(n.phi[j]) == 0 {
			// Routes may exist before parameters do (e.g. first packet
			// between refreshes); build them lazily.
			succ := n.proto.Successors(j)
			if len(succ) == 0 {
				return graph.None
			}
			n.buildIH(j, succ)
		}
		return weightedPick(n.prng, n.phi[j], n.phiSucc[j])
	}
}

// equalCostSuccessors appends to out the successors whose marginal distance
// ties the best one (OSPF-style equal-cost multipath).
func (n *Node) equalCostSuccessors(j graph.NodeID, out []graph.NodeID) []graph.NodeID {
	succ := n.proto.Successors(j)
	best := math.Inf(1)
	for _, k := range succ {
		if d := n.proto.SuccessorDistance(j, k); d < best {
			best = d
		}
	}
	for _, k := range succ {
		if numeric.Equalish(n.proto.SuccessorDistance(j, k), best) {
			out = append(out, k)
		}
	}
	return out
}

// weightedPick samples a successor proportionally to its fraction, walking
// keys — phi's keys, ascending — so the running sum, and with it the pick
// for a given draw, does not depend on map order.
func weightedPick(r *rng.Source, phi alloc.Params, keys []graph.NodeID) graph.NodeID {
	if len(phi) == 0 {
		return graph.None
	}
	x := r.Float64()
	acc := 0.0
	for _, k := range keys {
		acc += phi[k]
		if x < acc {
			return k
		}
	}
	// FP remainder: fall back to the last successor with weight.
	for i := len(keys) - 1; i >= 0; i-- {
		if phi[keys[i]] > 0 {
			return keys[i]
		}
	}
	return graph.None
}

// Fractions exposes the current routing parameters for destination j
// (nil when none). Used by audits and tests.
func (n *Node) Fractions(j graph.NodeID) alloc.Params {
	switch n.cfg.Mode {
	case ModeStatic:
		if n.staticPhi == nil {
			return nil
		}
		return n.staticPhi[j]
	case ModeSP:
		if k := n.proto.BestSuccessor(j); k != graph.None {
			return alloc.Single(k)
		}
		return nil
	case ModeECMP:
		return alloc.Uniform(n.equalCostSuccessors(j, nil))
	default:
		return n.phi[j]
	}
}
