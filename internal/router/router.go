// Package router is the paper's router. Its per-router algorithm — an MPDA
// protocol instance for loop-free multipath routes, the IH/AH
// traffic-allocation heuristics, and two-timescale link-cost measurement —
// is the Agent, written once behind a five-method Host. Node hosts it on
// the discrete-event engine and adds the forwarding plane; the live node
// (internal/node) and the chaos protocol harness host it with both clocks
// off.
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

	"minroute/internal/alloc"
	"minroute/internal/des"
	"minroute/internal/eventq"
	"minroute/internal/graph"
	"minroute/internal/linkcost"
	"minroute/internal/lsu"
	"minroute/internal/mpda"
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
)

// HopLimit drops a packet that has already taken this many forwarding steps.
const HopLimit = 64

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeMP:
		return "MP"
	case ModeSP:
		return "SP"
	case ModeStatic:
		return "STATIC"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config tunes an Agent and the Node hosting it. A simulated Node starts
// from Defaults; a host that prices its own links runs its agent on the
// zero value (MP, both clocks off).
type Config struct {
	Mode Mode
	// Tl is the long-term (routing path) update interval in seconds.
	Tl float64
	// Ts is the short-term (routing parameter) update interval in seconds.
	Ts float64
	// UseOnlineEstimator selects the PA-style estimator (measured sojourn
	// and service times) instead of the closed-form M/M/1 marginal.
	UseOnlineEstimator bool
	// AHDamping selects the damped AH variant with the given β (see
	// alloc.AdjustDamped). Zero or negative selects the literal Fig. 7
	// rule (alloc.AH), kept for ablation.
	AHDamping float64
	// CostMeasureWindow, when in (0, Tl), measures the long-term flow over
	// only the trailing window of each Tl period (ARPANET-style: the period
	// then controls staleness only, not averaging).
	CostMeasureWindow float64
}

// Defaults returns the configuration used by the paper's headline runs:
// MP-TL-10-TS-2.
func Defaults() Config {
	return Config{
		Mode:      ModeMP,
		Tl:        10,
		Ts:        2,
		AHDamping: 0.5,
	}
}

// Node is one simulated router: an Agent on the discrete-event engine, the
// ports toward its neighbors, and the forwarding plane.
type Node struct {
	eng  *des.Engine
	send mpda.Sender

	// agent holds the router's ID, Config and prng: the clocks' phases and
	// the forwarding picks draw from one stream.
	agent *Agent
	// timers holds the agent's pending timers, by Timer.
	timers [numTimers]eventq.Handle
	// ports[k] leads to neighbor k, nil where no port does.
	ports []*des.Port

	// staticPhi, in ModeStatic, holds the externally installed parameters.
	staticPhi []alloc.Split

	// rx is the one message HandleControl decodes every LSU into; the agent
	// borrows it for the call.
	rx lsu.Msg

	// OnArrive is invoked for every data packet whose destination is this
	// node (set by the network assembly).
	OnArrive func(pkt *des.Packet)
	// OnAlloc, when set, is the agent's Publish: every IH build and AH step
	// of φ_j over the S_j it must cover. The φ-simplex oracle (Property 1:
	// support ⊆ S_j, φ ≥ 0, Σφ = 1) hooks here.
	OnAlloc func(j graph.NodeID, phi alloc.Split, succ []graph.NodeID)

	// tel, when non-nil, traces drop instants; the agent traces the control
	// plane. Installed via SetTelemetry.
	tel *telemetry.NodeProbes

	// Counters.
	ForwardedPackets int64
	DroppedNoRoute   int64
	DroppedHopLimit  int64
	DroppedQueue     int64
	// DroppedDown counts data packets that reached the node crashed. The
	// control packets it ignores are not counted: the conservation ledger
	// balances data traffic only.
	DroppedDown int64
}

// New constructs a node. Ports must be attached before Start.
func New(eng *des.Engine, id graph.NodeID, numNodes int, cfg Config, sendLSU mpda.Sender) *Node {
	n := &Node{eng: eng, send: sendLSU, ports: make([]*des.Port, numNodes)}
	n.agent = NewAgent(id, numNodes, cfg, (*desHost)(n), eng.RNG().Split(uint64(id)+1000))
	return n
}

// ID returns the node's address.
func (n *Node) ID() graph.NodeID { return n.agent.id }

// Protocol exposes the MPDA instance (for invariant checks and inspection).
func (n *Node) Protocol() *mpda.Router { return n.agent.proto }

// AttachPort registers the outgoing port toward neighbor k (replacing the
// port of an already attached k).
func (n *Node) AttachPort(k graph.NodeID, p *des.Port) {
	i := n.agent.attach(k)
	n.ports[k] = p
	if cfg := n.agent.cfg; cfg.UseOnlineEstimator {
		mu := linkcost.KnownMu(p.Capacity, linkcost.MeanPacketBits)
		p.Estimator = linkcost.NewOnlineEstimator(p.Prop, 1/mu)
		n.agent.links[i].est = p.Estimator
	}
}

// port returns the port toward neighbor k, nil when none leads there.
func (n *Node) port(k graph.NodeID) *des.Port {
	if k < 0 || int(k) >= len(n.ports) {
		return nil
	}
	return n.ports[k]
}

// InstallStatic installs ModeStatic's fixed parameters: phi[j] holds the
// fractions toward destination j, not expected to change. It panics on a
// Split whose hops do not ascend, since the pick walks them in order.
func (n *Node) InstallStatic(phi []alloc.Split) {
	for j, p := range phi {
		if !p.Ascending() {
			panic(fmt.Sprintf("router: static parameters toward %d: hops of %v do not ascend", j, p))
		}
	}
	n.staticPhi = phi
}

// SetTelemetry attaches the simulation's shared instrumentation to the
// agent's events and this node's drops. Call before Start.
func (n *Node) SetTelemetry(tp *telemetry.NodeProbes) {
	n.tel = tp
	if tp != nil {
		n.agent.Observe(tp.Tracer, tp)
	}
}

// asRouter runs fn, entered from harness context (boot, restart, fault
// injection), under the router's own origin priority: the harness's would
// make equal-time ordering of its emissions and timers depend on the
// caller and on which shard's tracer recorded it.
func (n *Node) asRouter(fn func()) { n.eng.WithOrigin(des.PriRouter(uint64(n.agent.id)), fn) }

// Start starts the agent (Agent.Start) over the links whose port is up.
func (n *Node) Start() { n.asRouter(func() { n.agent.Start(n.portUp) }) }

// portUp reports whether the port toward neighbor k carries traffic.
func (n *Node) portUp(k graph.NodeID) bool { return !n.port(k).Down() }

// Crash takes the node down: its timers are disarmed and all traffic is
// dropped until Restart, which finds no protocol state left.
func (n *Node) Crash() { n.agent.Crash() }

// Restart boots a crashed node from scratch (Agent.Restart); neighbors learn
// of the resurrection through core.RestartNode (LinkRecovered on their side).
func (n *Node) Restart() { n.asRouter(func() { n.agent.Restart(n.portUp) }) }

// Down reports whether the node is crashed.
func (n *Node) Down() bool { return n.agent.down }

// HandleControl processes a received control packet (a marshaled LSU).
// Crashed nodes ignore control traffic entirely.
func (n *Node) HandleControl(pkt *des.Packet) {
	if n.agent.down {
		return
	}
	buf, ok := pkt.Control.([]byte)
	if !ok {
		return
	}
	if err := lsu.UnmarshalInto(&n.rx, buf); err != nil {
		// A corrupt LSU would violate the reliable-link assumption; surface
		// loudly in simulation rather than limping on.
		panic("router: corrupt LSU: " + err.Error())
	}
	n.agent.HandleLSU(&n.rx)
}

// LinkFailed tells the protocol an adjacent link went down.
func (n *Node) LinkFailed(k graph.NodeID) { n.asRouter(func() { n.agent.LinkDown(k) }) }

// LinkRecovered tells the protocol an adjacent link came back.
func (n *Node) LinkRecovered(k graph.NodeID) { n.asRouter(func() { n.agent.LinkRecovered(k) }) }

// HandleData forwards or delivers a data packet, taking ownership: delivered
// and dropped packets are recycled (OnArrive must not retain the pointer).
func (n *Node) HandleData(pkt *des.Packet) {
	a := n.agent
	if a.down {
		n.drop(&n.DroppedDown, telemetry.KindDropDown, pkt)
		return
	}
	if pkt.Dst == a.id {
		if n.OnArrive != nil {
			n.OnArrive(pkt)
		}
		n.eng.FreePacket(pkt)
		return
	}
	if pkt.Hops >= HopLimit {
		n.drop(&n.DroppedHopLimit, telemetry.KindDropHopLimit, pkt)
		return
	}
	// No successor, or (static routes only) one no port leads to.
	p := n.port(n.pickNextHop(pkt.Dst))
	if p == nil {
		n.drop(&n.DroppedNoRoute, telemetry.KindDropNoRoute, pkt)
		return
	}
	pkt.Hops++
	if !p.Send(pkt) {
		n.drop(&n.DroppedQueue, telemetry.KindDropQueue, pkt)
		return
	}
	n.ForwardedPackets++
}

// drop counts, traces and recycles a data packet the node will not forward.
func (n *Node) drop(counter *int64, k telemetry.Kind, pkt *des.Packet) {
	*counter++
	if n.tel != nil {
		ev := telemetry.NewEvent(n.eng.Now(), k, n.agent.id)
		ev.Dst = pkt.Dst
		ev.Flow = int32(pkt.FlowID)
		ev.Pkt = uint32(pkt.Serial)
		ev.Value = 1
		n.tel.Tracer.Emit(ev)
	}
	n.eng.FreePacket(pkt)
}

// pickNextHop chooses the next hop toward j under the configured mode.
func (n *Node) pickNextHop(j graph.NodeID) graph.NodeID {
	a := n.agent
	switch a.cfg.Mode {
	case ModeSP:
		return a.proto.BestSuccessor(j)
	case ModeStatic:
		if n.staticPhi == nil {
			return graph.None
		}
		return weightedPick(a.prng, n.staticPhi[j])
	default: // ModeMP
		phi := a.phi[j]
		if !phi.Weighted() {
			// Routes may exist before parameters do (e.g. first packet
			// between refreshes); build them lazily.
			succ := a.proto.Successors(j)
			if len(succ) == 0 {
				return graph.None
			}
			a.buildIH(j, succ)
			if phi = a.Phi(j); phi == nil {
				return graph.None
			}
		}
		return weightedPick(a.prng, phi)
	}
}

// weightedPick samples a hop in proportion to its fraction, walking phi's
// hops in ascending order.
func weightedPick(r *rng.Source, phi alloc.Split) graph.NodeID {
	if len(phi) == 0 {
		return graph.None
	}
	x := r.Float64()
	acc := 0.0
	for _, sh := range phi {
		acc += sh.Frac
		if x < acc {
			return sh.Hop
		}
	}
	// FP remainder: fall back to the last hop with weight.
	for i := len(phi) - 1; i >= 0; i-- {
		if phi[i].Frac > 0 {
			return phi[i].Hop
		}
	}
	return graph.None
}

// Fractions returns destination j's current routing parameters (nil for
// none), for audits and tests.
func (n *Node) Fractions(j graph.NodeID) alloc.Split {
	switch n.agent.cfg.Mode {
	case ModeStatic:
		if n.staticPhi == nil {
			return nil
		}
		return n.staticPhi[j]
	case ModeSP:
		if k := n.agent.proto.BestSuccessor(j); k != graph.None {
			return alloc.Single(k)
		}
		return nil
	default:
		return n.agent.Phi(j)
	}
}

// desHost is a Node as its agent sees it: the engine's clock and timers,
// the ports, the LSU sender, and OnAlloc. Its own type keeps these methods
// off Node's API.
type desHost Node

func (h *desHost) Now() float64 { return h.eng.Now() }

func (h *desHost) After(t Timer, d float64, fn func()) {
	if fn == nil {
		h.eng.Cancel(h.timers[t])
		return
	}
	h.timers[t] = h.eng.After(d, fn)
}

func (h *desHost) Link(k graph.NodeID) (capacity, prop float64, packets int64) {
	p := (*Node)(h).port(k)
	return p.Capacity, p.Prop, p.DataPackets
}

func (h *desHost) SendLSU(to graph.NodeID, m *lsu.Msg) { h.send(to, m) }

func (h *desHost) Publish(j graph.NodeID, phi alloc.Split, succ []graph.NodeID) {
	if h.OnAlloc != nil {
		h.OnAlloc(j, phi, succ)
	}
}
