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

// Config tunes a Node. The zero value is not valid; use Defaults.
type Config struct {
	Mode Mode
	// Tl is the long-term (routing path) update interval in seconds.
	Tl float64
	// Ts is the short-term (routing parameter) update interval in seconds.
	Ts float64
	// MeanPacketBits calibrates packet-rate conversions for the M/M/1 cost.
	MeanPacketBits float64
	// QueueBits bounds each output port's data band.
	QueueBits float64
	// CostSmoothing is the EWMA weight folding each Tl window's measured
	// marginal into the advertised long-term cost.
	CostSmoothing float64
	// UseOnlineEstimator selects the PA-style estimator (measured sojourn
	// and service times) instead of the closed-form M/M/1 marginal.
	UseOnlineEstimator bool
	// HopLimit drops packets that exceed this many forwarding steps.
	HopLimit int
	// FlowletTimeout, when positive, pins each flow to its current next hop
	// and re-randomizes only after the flow pauses for at least this long
	// (flowlet switching). Bursts within a flowlet stay on one path, which
	// eliminates almost all reordering while idle gaps still re-balance
	// load. Applies to ModeMP only.
	FlowletTimeout float64
	// AdaptiveTimers lets the measurement intervals vary with congestion,
	// as the paper suggests ("Tl and Ts need not be static constants and
	// can be made to vary according to congestion at the router"): when
	// short-term costs churn, Ts shrinks toward Ts/2 for faster balancing;
	// when they are stable it stretches toward 2Ts. Tl adapts the same way
	// against advertised-cost changes. Both stay within [x/2, 2x].
	AdaptiveTimers bool
	// AHDamping selects the damped AH variant with the given β (see
	// alloc.AdjustDamped). Zero or negative selects the literal Fig. 7
	// rule (alloc.Adjust), kept for ablation.
	AHDamping float64
	// ShortCostSmoothing is the EWMA weight for short-term cost samples;
	// 1 uses each Ts window's measurement raw.
	ShortCostSmoothing float64
	// CostMeasureWindow, when positive and smaller than Tl, measures the
	// long-term link flow over only the trailing window of each Tl period
	// instead of the whole period (ARPANET-style fixed measurement window:
	// the update period then controls staleness only, not averaging).
	CostMeasureWindow float64
	// CostUtilizationCap bounds the utilization used when computing link
	// costs. The raw M/M/1 marginal explodes near saturation (seconds per
	// packet against an idle cost under a millisecond), which turns any
	// momentarily hot link infinitely repulsive and induces the classic
	// delay-metric route oscillation; the revised-ARPANET-metric line of
	// work the paper cites ([18], [13]) bounds the metric's dynamic range
	// for exactly this reason. 0.9 caps the advertised marginal at ~100x
	// idle. Set >= linkcost.MaxUtilization to disable.
	CostUtilizationCap float64
}

// Defaults returns the configuration used by the paper's headline runs:
// MP-TL-10-TS-2 with 1000-byte mean packets.
func Defaults() Config {
	return Config{
		Mode:           ModeMP,
		Tl:             10,
		Ts:             2,
		MeanPacketBits: 8000,
		QueueBits:      des.DefaultQueueBits,
		CostSmoothing:  0.5,
		HopLimit:       64,
		AHDamping:      0.5,

		ShortCostSmoothing: 0.5,
		CostUtilizationCap: 0.9,
	}
}

// Node is one simulated router.
type Node struct {
	id       graph.NodeID
	eng      *des.Engine
	cfg      Config
	prng     *rng.Source
	numNodes int
	send     mpda.Sender

	proto *mpda.Router
	ports map[graph.NodeID]*des.Port
	// down is true between Crash and Restart: the node forwards nothing,
	// processes no control traffic, and its timers are disarmed.
	down bool
	// Pending timer handles, canceled on Crash so a restarted node never
	// runs two timer chains.
	tsTimer, tlTimer, tlSnapTimer eventq.Handle
	// nbrs lists attached neighbors in ascending order; all periodic work
	// iterates it (never the port map) so FP effects are deterministic.
	nbrs []graph.NodeID

	// Short-term marginal link costs, refreshed every Ts.
	shortCost map[graph.NodeID]float64
	// Long-term cost EWMAs, advertised to MPDA every Tl.
	longCost map[graph.NodeID]*linkcost.Smoother
	// Snapshots of cumulative port counters for windowed rates.
	tsSnap map[graph.NodeID]portSnap
	tlSnap map[graph.NodeID]portSnap
	// lastTl is when the previous long-term measurement window started.
	lastTl float64
	// lastTsChurn / lastTlChurn record the largest relative cost change in
	// the previous measurement round (adaptive-timer input).
	lastTsChurn float64
	lastTlChurn float64

	// phi[j] holds the current routing parameters for destination j.
	phi []alloc.Params
	// phiSucc[j] is a copy of the successor set phi[j] was built from.
	phiSucc [][]graph.NodeID

	// staticPhi, in ModeStatic, holds the externally installed parameters.
	staticPhi []alloc.Params

	// flowlets tracks, per flow ID, the pinned next hop and last-seen time
	// for flowlet switching.
	flowlets map[int]*flowletState

	// OnArrive is invoked for every data packet whose destination is this
	// node (set by the network assembly).
	OnArrive func(pkt *des.Packet)
	// OnForward, when set, observes every forwarding decision (packet and
	// chosen next hop) before transmission; the path tracer hooks here.
	OnForward func(pkt *des.Packet, next graph.NodeID)
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

type portSnap struct {
	packets int64
	bits    float64
}

type flowletState struct {
	next graph.NodeID
	last float64
}

// New constructs a node. Ports must be attached before Start.
func New(eng *des.Engine, id graph.NodeID, numNodes int, cfg Config, sendLSU mpda.Sender) *Node {
	n := &Node{
		id:        id,
		eng:       eng,
		cfg:       cfg,
		prng:      eng.RNG().Split(uint64(id) + 1000),
		numNodes:  numNodes,
		send:      sendLSU,
		proto:     mpda.NewRouter(id, numNodes, sendLSU),
		ports:     make(map[graph.NodeID]*des.Port),
		shortCost: make(map[graph.NodeID]float64),
		longCost:  make(map[graph.NodeID]*linkcost.Smoother),
		tsSnap:    make(map[graph.NodeID]portSnap),
		tlSnap:    make(map[graph.NodeID]portSnap),
		phi:       make([]alloc.Params, numNodes),
		phiSucc:   make([][]graph.NodeID, numNodes),
		flowlets:  make(map[int]*flowletState),
	}
	return n
}

// ID returns the node's address.
func (n *Node) ID() graph.NodeID { return n.id }

// Protocol exposes the MPDA instance (for invariant checks and inspection).
func (n *Node) Protocol() *mpda.Router { return n.proto }

// AttachPort registers the outgoing port toward neighbor k.
func (n *Node) AttachPort(k graph.NodeID, p *des.Port) {
	if _, dup := n.ports[k]; !dup {
		i := 0
		for i < len(n.nbrs) && n.nbrs[i] < k {
			i++
		}
		n.nbrs = append(n.nbrs, 0)
		copy(n.nbrs[i+1:], n.nbrs[i:])
		n.nbrs[i] = k
	}
	n.ports[k] = p
	if n.cfg.UseOnlineEstimator {
		mu := linkcost.KnownMu(p.Capacity, n.cfg.MeanPacketBits)
		p.Estimator = linkcost.NewOnlineEstimator(p.Prop, 1/mu)
	}
}

// InstallStatic installs fixed routing parameters for ModeStatic. phi[j]
// holds the fractions this node uses toward destination j.
func (n *Node) InstallStatic(phi []alloc.Params) { n.staticPhi = phi }

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

// emitAlloc traces one routing-parameter step for destination j; Value is
// the allocation spread (0 = single path).
func (n *Node) emitAlloc(k telemetry.Kind, j graph.NodeID, phi alloc.Params) {
	if n.tel == nil {
		return
	}
	ev := telemetry.NewEvent(n.eng.Now(), k, n.id)
	ev.Dst = j
	ev.Value = alloc.Spread(phi)
	n.tel.Tracer.Emit(ev)
}

// emitDrop traces one dropped data packet.
func (n *Node) emitDrop(k telemetry.Kind, pkt *des.Packet) {
	if n.tel == nil {
		return
	}
	ev := telemetry.NewEvent(n.eng.Now(), k, n.id)
	ev.Dst = pkt.Dst
	ev.Flow = int32(pkt.FlowID)
	ev.Value = 1
	n.tel.Tracer.Emit(ev)
}

// Start brings up the adjacent links whose port is up at their idle costs
// and schedules the measurement timers with random phases.
func (n *Node) Start() {
	// The whole boot sequence runs under the router's own origin priority:
	// Start runs from harness context (boot, or a chaos Restart), and
	// inheriting the harness origin would make the boot emissions and the
	// timer chains' equal-time ordering depend on who restarted the node —
	// and on which shard's tracer recorded it — rather than on the node
	// itself.
	n.eng.WithOrigin(des.PriRouter(uint64(n.id)), func() {
		for _, k := range n.nbrs {
			p := n.ports[k]
			c := n.idleCost(p)
			n.shortCost[k] = c
			sm := linkcost.NewSmoother(n.cfg.CostSmoothing)
			sm.Update(c)
			n.longCost[k] = sm
			// A restart can find a neighbor crashed or the link failed;
			// MPDA must not believe a link that cannot carry its LSUs.
			if !p.Down() {
				n.proto.LinkUp(k, quantizeCost(c))
			}
		}
		n.refreshAllocations()
		if n.cfg.Ts > 0 {
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
	n.proto = mpda.NewRouter(n.id, n.numNodes, n.send)
	n.installProtoHooks()
	n.phi = make([]alloc.Params, n.numNodes)
	n.phiSucc = make([][]graph.NodeID, n.numNodes)
	n.flowlets = make(map[int]*flowletState)
	n.shortCost = make(map[graph.NodeID]float64)
	n.longCost = make(map[graph.NodeID]*linkcost.Smoother)
	// Measurement windows must not straddle the outage: snapshot the port
	// counters as they stand so the first post-restart window is clean.
	n.lastTl = n.eng.Now()
	n.lastTsChurn, n.lastTlChurn = 0, 0
	for _, k := range n.nbrs {
		p := n.ports[k]
		snap := portSnap{packets: p.DataPackets, bits: p.DataBits}
		n.tsSnap[k] = snap
		n.tlSnap[k] = snap
	}
	n.Start()
}

// Down reports whether the node is crashed.
func (n *Node) Down() bool { return n.down }

// armTlSnapshot schedules the pre-measurement snapshot when a fixed cost
// window is configured, so tlTick sees only the trailing window of the
// period of the given length.
func (n *Node) armTlSnapshot(period float64) {
	w := n.cfg.CostMeasureWindow
	if w <= 0 || w >= period {
		return
	}
	n.tlSnapTimer = n.eng.After(period-w, func() {
		n.lastTl = n.eng.Now()
		for _, k := range n.nbrs {
			p := n.ports[k]
			n.tlSnap[k] = portSnap{packets: p.DataPackets, bits: p.DataBits}
		}
	})
}

func (n *Node) idleCost(p *des.Port) float64 {
	mu := linkcost.KnownMu(p.Capacity, n.cfg.MeanPacketBits)
	return linkcost.MM1Marginal(0, mu, p.Prop)
}

// quantizeCost rounds to 0.1 µs so identical loads advertise identical
// costs and FP dust cannot force spurious LSU floods.
func quantizeCost(c float64) float64 { return math.Round(c*1e7) / 1e7 }

// tsTick performs the short-term measurement and runs heuristic AH.
func (n *Node) tsTick() {
	churn := 0.0
	for _, k := range n.nbrs {
		p := n.ports[k]
		prev := n.tsSnap[k]
		cur := portSnap{packets: p.DataPackets, bits: p.DataBits}
		n.tsSnap[k] = cur
		lambda := float64(cur.packets-prev.packets) / n.cfg.Ts
		mu := linkcost.KnownMu(p.Capacity, n.cfg.MeanPacketBits)
		var c float64
		if n.cfg.UseOnlineEstimator && p.Estimator != nil {
			c = p.Estimator.Take()
			if cap := n.costCap(mu, p.Prop); c > cap {
				c = cap
			}
		} else {
			if cap := n.cfg.CostUtilizationCap; cap > 0 && lambda > cap*mu {
				lambda = cap * mu
			}
			c = linkcost.MM1Marginal(lambda, mu, p.Prop)
		}
		if old, ok := n.shortCost[k]; ok && old > 0 {
			if rel := math.Abs(c-old) / old; rel > churn {
				churn = rel
			}
		}
		if a := n.cfg.ShortCostSmoothing; a > 0 && a < 1 {
			if prev, ok := n.shortCost[k]; ok {
				c = prev + a*(c-prev)
			}
		}
		n.shortCost[k] = c
		if n.cfg.UseOnlineEstimator {
			// The estimator consumes its window here; fold it into the
			// long-term EWMA since tlTick cannot re-measure it.
			n.longCost[k].Update(c)
		}
	}
	n.lastTsChurn = churn
	if n.cfg.Mode == ModeMP {
		for j := range n.phi {
			if len(n.phi[j]) == 0 {
				continue
			}
			succ := n.proto.Successors(graph.NodeID(j))
			if len(succ) < 2 {
				continue
			}
			if n.cfg.AHDamping > 0 {
				alloc.AdjustDamped(n.phi[j], succ, n.shortDist(graph.NodeID(j)), n.cfg.AHDamping)
			} else {
				alloc.Adjust(n.phi[j], succ, n.shortDist(graph.NodeID(j)))
			}
			if n.OnAlloc != nil {
				n.OnAlloc(graph.NodeID(j), n.phi[j], succ)
			}
			n.emitAlloc(telemetry.KindAllocAdjust, graph.NodeID(j), n.phi[j])
		}
	}
	n.tsTimer = n.eng.After(n.nextTs(), n.tsTick)
}

// nextTs returns the interval to the next short-term tick, adapting it to
// the measured cost churn when AdaptiveTimers is on.
func (n *Node) nextTs() float64 {
	if !n.cfg.AdaptiveTimers {
		return n.cfg.Ts
	}
	churn := n.lastTsChurn
	switch {
	case churn > 0.2:
		return n.cfg.Ts / 2
	case churn < 0.05:
		return n.cfg.Ts * 2
	default:
		return n.cfg.Ts
	}
}

// nextTl adapts the long-term interval to route-affecting cost changes.
func (n *Node) nextTl() float64 {
	if !n.cfg.AdaptiveTimers {
		return n.cfg.Tl
	}
	churn := n.lastTlChurn
	switch {
	case churn > 0.2:
		return n.cfg.Tl / 2
	case churn < 0.05:
		return n.cfg.Tl * 2
	default:
		return n.cfg.Tl
	}
}

// costCap returns the maximum cost the utilization cap allows for a link
// with service rate mu and propagation delay tau.
func (n *Node) costCap(mu, tau float64) float64 {
	cap := n.cfg.CostUtilizationCap
	if cap <= 0 {
		return math.Inf(1)
	}
	return linkcost.MM1Marginal(cap*mu, mu, tau)
}

// shortDist is the AH distance function: D_jk + l_ik with the short-term
// link cost.
func (n *Node) shortDist(j graph.NodeID) alloc.DistFunc {
	return func(k graph.NodeID) float64 {
		c, ok := n.shortCost[k]
		if !ok {
			return math.Inf(1)
		}
		return n.proto.Tables().NbrDist(j, k) + c
	}
}

// tlTick measures each adjacent link's flow over the elapsed long-term
// window ("link costs measured over longer intervals of length Tl are used
// for routing-path computation"), folds it into the advertised-cost EWMA,
// and feeds any changes into MPDA.
func (n *Node) tlTick() {
	elapsed := n.eng.Now() - n.lastTl
	n.lastTl = n.eng.Now()
	churn := 0.0
	for _, k := range n.nbrs {
		p := n.ports[k]
		prev := n.tlSnap[k]
		cur := portSnap{packets: p.DataPackets, bits: p.DataBits}
		n.tlSnap[k] = cur
		if !n.cfg.UseOnlineEstimator && elapsed > 0 {
			lambda := float64(cur.packets-prev.packets) / elapsed
			mu := linkcost.KnownMu(p.Capacity, n.cfg.MeanPacketBits)
			if cap := n.cfg.CostUtilizationCap; cap > 0 && lambda > cap*mu {
				lambda = cap * mu
			}
			n.longCost[k].Update(linkcost.MM1Marginal(lambda, mu, p.Prop))
		}
		c := quantizeCost(n.longCost[k].Value())
		//lint:floateq-ok change detection between quantized costs; quantization makes equality exact
		if cur, ok := n.proto.Tables().AdjCost(k); !ok || cur != c {
			if ok && cur > 0 {
				if rel := math.Abs(c-cur) / cur; rel > churn {
					churn = rel
				}
			}
			n.proto.LinkCostChange(k, c)
		}
	}
	n.lastTlChurn = churn
	n.refreshAllocations()
	next := n.nextTl()
	n.tlTimer = n.eng.After(next, n.tlTick)
	n.armTlSnapshot(next)
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
	if n.down {
		return
	}
	p, ok := n.ports[k]
	if !ok {
		return
	}
	n.eng.WithOrigin(des.PriRouter(uint64(n.id)), func() {
		c := n.idleCost(p)
		n.shortCost[k] = c
		n.longCost[k].Update(c)
		n.proto.LinkUp(k, quantizeCost(c))
		n.refreshAllocations()
	})
}

// refreshAllocations re-runs IH for every destination whose successor set
// changed since its parameters were last built (paper: "When S_j is
// computed for the first time or recomputed again due to long-term route
// changes, traffic should be freshly distributed" by IH).
func (n *Node) refreshAllocations() {
	if n.cfg.Mode != ModeMP {
		return
	}
	for j := range n.phi {
		jid := graph.NodeID(j)
		if jid == n.id {
			continue
		}
		succ := n.proto.Successors(jid)
		if slices.Equal(succ, n.phiSucc[j]) {
			continue
		}
		n.phiSucc[j] = append(n.phiSucc[j][:0], succ...)
		if len(succ) == 0 {
			n.phi[j] = nil
		} else {
			n.phi[j] = alloc.Initial(succ, n.shortDist(jid))
		}
		if n.OnAlloc != nil {
			n.OnAlloc(jid, n.phi[j], succ)
		}
		n.emitAlloc(telemetry.KindAllocInit, jid, n.phi[j])
	}
}

// HandleData forwards (or delivers) a data packet. The node takes ownership:
// delivered and dropped packets are recycled into the engine's packet pool
// (observers like OnArrive must not retain the pointer past their return).
func (n *Node) HandleData(pkt *des.Packet) {
	if n.down {
		n.DroppedDown++
		n.emitDrop(telemetry.KindDropDown, pkt)
		n.eng.FreePacket(pkt)
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
		n.DroppedHopLimit++
		n.emitDrop(telemetry.KindDropHopLimit, pkt)
		n.eng.FreePacket(pkt)
		return
	}
	var k graph.NodeID
	if n.cfg.Mode == ModeMP && n.cfg.FlowletTimeout > 0 && pkt.FlowID >= 0 {
		k = n.pickFlowletHop(pkt)
	} else {
		k = n.pickNextHop(pkt.Dst)
	}
	if k == graph.None {
		n.DroppedNoRoute++
		n.emitDrop(telemetry.KindDropNoRoute, pkt)
		n.eng.FreePacket(pkt)
		return
	}
	p, ok := n.ports[k]
	if !ok {
		n.DroppedNoRoute++
		n.emitDrop(telemetry.KindDropNoRoute, pkt)
		n.eng.FreePacket(pkt)
		return
	}
	pkt.Hops++
	if n.OnForward != nil {
		n.OnForward(pkt, k)
	}
	if !p.Send(pkt) {
		n.DroppedQueue++
		n.emitDrop(telemetry.KindDropQueue, pkt)
		n.eng.FreePacket(pkt)
		return
	}
	n.ForwardedPackets++
}

// pickFlowletHop implements flowlet switching: reuse the pinned next hop
// while the flow's inter-packet gap stays under FlowletTimeout; otherwise
// re-pick from the current routing parameters. A pinned hop that left the
// successor set is replaced immediately.
func (n *Node) pickFlowletHop(pkt *des.Packet) graph.NodeID {
	now := n.eng.Now()
	st := n.flowlets[pkt.FlowID]
	if st != nil && now-st.last <= n.cfg.FlowletTimeout {
		if phi := n.phi[pkt.Dst]; phi != nil {
			if v, ok := phi[st.next]; ok && v > 0 {
				st.last = now
				return st.next
			}
		}
	}
	k := n.pickNextHop(pkt.Dst)
	if k == graph.None {
		return k
	}
	if st == nil {
		st = &flowletState{}
		n.flowlets[pkt.FlowID] = st
	}
	st.next = k
	st.last = now
	return k
}

// pickNextHop chooses the outgoing neighbor for destination j under the
// configured mode.
func (n *Node) pickNextHop(j graph.NodeID) graph.NodeID {
	switch n.cfg.Mode {
	case ModeSP:
		return n.proto.BestSuccessor(j)
	case ModeECMP:
		set := n.equalCostSuccessors(j)
		if len(set) == 0 {
			return graph.None
		}
		return set[n.prng.Intn(len(set))]
	case ModeStatic:
		if n.staticPhi == nil {
			return graph.None
		}
		return weightedPick(n.prng, n.staticPhi[j])
	default: // ModeMP
		phi := n.phi[j]
		if len(phi) == 0 {
			// Routes may exist before parameters do (e.g. first packet
			// between refreshes); build them lazily.
			succ := n.proto.Successors(j)
			if len(succ) == 0 {
				return graph.None
			}
			n.phi[j] = alloc.Initial(succ, n.shortDist(j))
			n.phiSucc[j] = append(n.phiSucc[j][:0], succ...)
			phi = n.phi[j]
			if n.OnAlloc != nil {
				n.OnAlloc(j, phi, succ)
			}
			n.emitAlloc(telemetry.KindAllocInit, j, phi)
			if len(phi) == 0 {
				return graph.None
			}
		}
		return weightedPick(n.prng, phi)
	}
}

// equalCostSuccessors returns the successors whose marginal distance ties
// the best one (OSPF-style equal-cost multipath).
func (n *Node) equalCostSuccessors(j graph.NodeID) []graph.NodeID {
	succ := n.proto.Successors(j)
	if len(succ) == 0 {
		return nil
	}
	best := math.Inf(1)
	for _, k := range succ {
		if d := n.proto.SuccessorDistance(j, k); d < best {
			best = d
		}
	}
	var out []graph.NodeID
	for _, k := range succ {
		if numeric.Equalish(n.proto.SuccessorDistance(j, k), best) {
			out = append(out, k)
		}
	}
	return out
}

// weightedPick samples a successor proportionally to its fraction.
func weightedPick(r *rng.Source, phi alloc.Params) graph.NodeID {
	if len(phi) == 0 {
		return graph.None
	}
	x := r.Float64()
	acc := 0.0
	keys := phi.Keys()
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
		return alloc.Uniform(n.equalCostSuccessors(j))
	default:
		return n.phi[j]
	}
}
