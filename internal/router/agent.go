package router

import (
	"math"
	"slices"
	"sort"

	"minroute/internal/alloc"
	"minroute/internal/graph"
	"minroute/internal/linkcost"
	"minroute/internal/lsu"
	"minroute/internal/mpda"
	"minroute/internal/rng"
	"minroute/internal/telemetry"
)

// The cost-estimation constants no experiment varies (DESIGN.md §6).
const (
	// longSmoothing is the EWMA weight folding each Tl window's measured
	// marginal into the advertised long-term cost.
	longSmoothing = 0.5
	// shortSmoothing is the EWMA weight for each Ts window's sample.
	shortSmoothing = 0.5
	// utilizationCap bounds the utilization link costs are computed at. The
	// raw M/M/1 marginal explodes near saturation, turning a momentarily hot
	// link infinitely repulsive and inducing the classic delay-metric route
	// oscillation; the revised ARPANET metric the paper cites ([18], [13])
	// bounds the dynamic range for this reason. 0.9 caps it at ~100x idle.
	utilizationCap = 0.9
)

// Host is everything an Agent reaches of its substrate. The agent calls it
// from inside its own methods, so a host that locks around the agent holds
// that lock here too.
type Host interface {
	// Now reads the host's clock in seconds.
	Now() float64
	// After arms fn to run d seconds from now as the agent's timer t or, with
	// fn nil, disarms t. An agent whose Tl and Ts are both 0 arms none.
	After(t Timer, d float64, fn func())
	// Link reports the link to neighbor k: capacity in bits/s, propagation
	// delay in seconds, and data packets carried. Only an agent that prices
	// its links itself (Start, LinkRecovered, the clocks) asks.
	Link(k graph.NodeID) (capacity, prop float64, packets int64)
	// SendLSU hands m to the link toward neighbor to, which must deliver it
	// reliably and in order.
	SendLSU(to graph.NodeID, m *lsu.Msg)
	// Publish observes each IH build and AH step of φ_j over the successor
	// set succ it must cover; phi is nil while IH finds no usable successor.
	// Both are the agent's; a host keeping them copies.
	Publish(j graph.NodeID, phi alloc.Split, succ []graph.NodeID)
}

// Timer names one of an agent's clocks to its Host.
type Timer int

// The agent's timers: the next Ts tick, the next Tl tick, and the reopening
// of the Tl window before it (Config.CostMeasureWindow).
const (
	tsClock Timer = iota
	tlClock
	tlWindow
	numTimers
)

// ClocklessHost is the Host of an agent run with Tl = Ts = 0 by a host that
// prices every link itself, so the agent never reads a link or arms a timer.
// Clock is Now, Send is SendLSU, and OnAlloc, when non-nil, is Publish.
type ClocklessHost struct {
	Clock   func() float64
	Send    mpda.Sender
	OnAlloc func(j graph.NodeID, phi alloc.Split, succ []graph.NodeID)
}

func (h ClocklessHost) Now() float64                              { return h.Clock() }
func (ClocklessHost) After(Timer, float64, func())                {}
func (ClocklessHost) Link(graph.NodeID) (float64, float64, int64) { return 0, 0, 0 }
func (h ClocklessHost) SendLSU(to graph.NodeID, m *lsu.Msg)       { h.Send(to, m) }
func (h ClocklessHost) Publish(j graph.NodeID, phi alloc.Split, succ []graph.NodeID) {
	if h.OnAlloc != nil {
		h.OnAlloc(j, phi, succ)
	}
}

// Sink receives an agent's control-plane events; a *telemetry.Tracer is one.
type Sink interface{ Emit(telemetry.Event) }

// link is everything an agent keeps about one attached neighbor.
type link struct {
	to graph.NodeID
	// short is the short-term marginal cost, refreshed every Ts (or the
	// cost the host gave).
	short float64
	// long is the long-term cost EWMA, advertised to MPDA every Tl.
	long *linkcost.Smoother
	// tsSnap and tlSnap are the link's packet count when the current
	// short-term and long-term measurement windows opened.
	tsSnap, tlSnap int64
	est            *linkcost.OnlineEstimator // with Config.UseOnlineEstimator
}

// Agent is the paper's router less its substrate: an MPDA instance, the
// per-link cost records, the routing parameters φ and the successor sets
// they were built from, and the Ts/Tl clocks. It reaches its substrate only
// through a Host. Not safe for concurrent use.
//
// Either the host prices the links — LinkUp and LinkCostChange carry the
// cost, which MPDA advertises as given and IH prices the link at — and runs
// the agent with Tl = Ts = 0; or the agent prices them itself (Start,
// LinkRecovered, the clocks), measuring each through Host.Link.
type Agent struct {
	id   graph.NodeID
	cfg  Config
	host Host
	// prng draws the clocks' random phases.
	prng *rng.Source

	proto *mpda.Router
	// links holds the attached neighbors in ascending ID order; all periodic
	// work iterates it in that order so FP effects are deterministic.
	links []link
	// down is true between Crash and Restart: the agent processes nothing
	// and its timers are disarmed.
	down bool
	// lastTl is when the current long-term measurement window opened.
	lastTl float64

	// phi[j] is φ_j over the successor set it was built from: IH writes one
	// share per successor and AH only rewrites fractions, so its hops are
	// that set. A φ_j without weight is IH finding no usable successor.
	phi []alloc.Split
	// dist is shortDists' scratch: one marginal distance per successor.
	dist []float64

	// sink, when non-nil, receives phase spans, LSU receive/ack events,
	// table commits and allocation steps; activeDur and converge take the
	// ACTIVE durations and table commits.
	sink        Sink
	activeDur   *telemetry.Histogram
	converge    *telemetry.ConvergeMeter
	activeSince float64
}

// NewAgent returns router id's agent over numNodes IDs. prng draws the
// clocks' random phases; with Tl = Ts = 0 it may be nil.
func NewAgent(id graph.NodeID, numNodes int, cfg Config, host Host, prng *rng.Source) *Agent {
	a := &Agent{
		id:   id,
		cfg:  cfg,
		host: host,
		prng: prng,
		phi:  make([]alloc.Split, numNodes),
	}
	a.proto = a.newProto()
	return a
}

// newProto builds a fresh MPDA instance, reporting to the agent if it has
// a sink.
func (a *Agent) newProto() *mpda.Router {
	r := mpda.NewRouter(a.id, len(a.phi), a.host.SendLSU)
	if a.sink != nil {
		r.OnPhase, r.OnCommit = a.onPhase, a.onCommit
	}
	return r
}

// Observe sends the agent's control-plane events to sink and, with probes,
// ACTIVE durations and table commits to their instruments. Call before the
// first event.
func (a *Agent) Observe(sink Sink, probes *telemetry.NodeProbes) {
	a.sink = sink
	a.proto.OnPhase, a.proto.OnCommit = a.onPhase, a.onCommit
	if probes != nil {
		a.activeDur, a.converge = probes.ActiveDur, probes.Converge
	}
}

// Protocol exposes the MPDA instance (for invariant checks and inspection).
func (a *Agent) Protocol() *mpda.Router { return a.proto }

// Phi returns destination j's routing parameters (nil for none); the Split
// is the agent's, rewritten in place by its next IH or AH step.
func (a *Agent) Phi(j graph.NodeID) alloc.Split {
	if !a.phi[j].Weighted() {
		return nil
	}
	return a.phi[j]
}

// linkIndex finds neighbor k in links: its position and true, or where it
// would be inserted and false.
func (a *Agent) linkIndex(k graph.NodeID) (int, bool) {
	i := sort.Search(len(a.links), func(i int) bool { return a.links[i].to >= k })
	return i, i < len(a.links) && a.links[i].to == k
}

// link returns the record of neighbor k, nil when there is none.
func (a *Agent) link(k graph.NodeID) *link {
	if i, ok := a.linkIndex(k); ok {
		return &a.links[i]
	}
	return nil
}

// attach gives neighbor k a record if it has none and returns its index.
func (a *Agent) attach(k graph.NodeID) int {
	i, dup := a.linkIndex(k)
	if !dup {
		a.links = slices.Insert(a.links, i, link{to: k})
	}
	return i
}

// onPhase reports an ACTIVE/PASSIVE flip; PASSIVE carries the span length.
func (a *Agent) onPhase(active bool) {
	now := a.host.Now()
	if active {
		a.activeSince = now
		a.sink.Emit(telemetry.NewEvent(now, telemetry.KindPhaseActive, a.id))
		return
	}
	ev := telemetry.NewEvent(now, telemetry.KindPhasePassive, a.id)
	ev.Value = now - a.activeSince
	a.sink.Emit(ev)
	a.activeDur.Observe(now, ev.Value)
}

// onCommit reports a main-table commit that changed that many entries.
func (a *Agent) onCommit(changed int) {
	now := a.host.Now()
	ev := telemetry.NewEvent(now, telemetry.KindTableCommit, a.id)
	ev.Value = float64(changed)
	a.sink.Emit(ev)
	a.converge.Commit(now)
}

// allocStep reports an IH build or AH step of φ_j over succ to the host and
// the sink, where Value is the allocation spread (0 = single path).
func (a *Agent) allocStep(k telemetry.Kind, j graph.NodeID, succ []graph.NodeID) {
	phi := a.Phi(j)
	a.host.Publish(j, phi, succ)
	if a.sink == nil {
		return
	}
	ev := telemetry.NewEvent(a.host.Now(), k, a.id)
	ev.Dst = j
	ev.Value = alloc.Spread(phi)
	a.sink.Emit(ev)
}

// Start brings up, at their idle costs, the links up reports up, opens both
// measurement windows now, and arms the timers with random phases.
func (a *Agent) Start(up func(k graph.NodeID) bool) {
	// After an outage the windows must not straddle it: both start from the
	// packet counters as they stand.
	a.openTlWindow()
	for i := range a.links {
		l := &a.links[i]
		_, _, l.tsSnap = a.host.Link(l.to)
		c := a.costAt(l.to, 0)
		l.short = c
		l.long = linkcost.NewSmoother(longSmoothing)
		l.long.Update(c)
		// A restart can find a neighbor crashed or the link failed; MPDA must
		// not believe a link that cannot carry its LSUs.
		if up(l.to) {
			a.proto.LinkUp(l.to, quantizeCost(c))
		}
	}
	a.refreshAllocations()
	if a.cfg.Ts > 0 {
		// The randomly phased first window is shorter than Ts but is still
		// priced as a full one: dividing by its true length would move every
		// DES golden for one tick per boot.
		a.host.After(tsClock, a.cfg.Ts*a.prng.Float64(), a.tsTick)
	}
	if a.cfg.Tl > 0 {
		// "The long-term update periods should be phased randomly at each
		// router" — first firing lands uniformly inside one Tl period.
		a.host.After(tlClock, a.cfg.Tl*a.prng.Float64(), a.tlTick)
	}
}

// Crash disarms the timers, so a restart never runs two chains, and has the
// agent process nothing until Restart, which remembers nothing — a reboot.
func (a *Agent) Crash() {
	if a.down {
		return
	}
	a.down = true
	for t := range numTimers {
		a.host.After(t, 0, nil)
	}
}

// Restart boots a crashed agent from scratch — a fresh MPDA instance, empty
// routing parameters — and starts it as Start does.
func (a *Agent) Restart(up func(k graph.NodeID) bool) {
	if !a.down {
		return
	}
	a.down = false
	a.proto = a.newProto()
	clear(a.phi)
	a.Start(up)
}

// costAt is the M/M/1 marginal cost of the link to k at lambda packets/s,
// utilization capped at utilizationCap: 0 gives idle, +Inf the ceiling.
func (a *Agent) costAt(k graph.NodeID, lambda float64) float64 {
	capacity, prop, _ := a.host.Link(k)
	mu := linkcost.KnownMu(capacity, linkcost.MeanPacketBits)
	if lambda > utilizationCap*mu {
		lambda = utilizationCap * mu
	}
	return linkcost.MM1Marginal(lambda, mu, prop)
}

// measure prices the link to k after it carried packets over window
// seconds — the one measurement both clocks use. ok is false for an empty
// window: nothing was measured and the caller keeps its cost.
func (a *Agent) measure(k graph.NodeID, packets int64, window float64) (c float64, ok bool) {
	if window <= 0 {
		return 0, false
	}
	return a.costAt(k, float64(packets)/window), true
}

// quantizeCost rounds to 0.1 µs so identical loads advertise identical
// costs and FP dust cannot force spurious LSU floods.
func quantizeCost(c float64) float64 { return math.Round(c*1e7) / 1e7 }

// tsTick performs the short-term measurement and runs heuristic AH.
func (a *Agent) tsTick() {
	for i := range a.links {
		l := &a.links[i]
		_, _, cur := a.host.Link(l.to)
		packets := cur - l.tsSnap
		l.tsSnap = cur
		var c float64
		if a.cfg.UseOnlineEstimator {
			c = math.Min(l.est.Take(), a.costAt(l.to, math.Inf(1)))
		} else {
			var ok bool
			if c, ok = a.measure(l.to, packets, a.cfg.Ts); !ok {
				continue
			}
		}
		l.short += shortSmoothing * (c - l.short)
		if a.cfg.UseOnlineEstimator {
			// The estimator consumes its window here; fold it into the
			// long-term EWMA since tlTick cannot re-measure it.
			l.long.Update(l.short)
		}
	}
	if a.cfg.Mode == ModeMP {
		a.stepAH()
	}
	a.host.After(tsClock, a.cfg.Ts, a.tsTick)
}

// stepAH runs heuristic AH, in place, on every φ_j that splits traffic.
func (a *Agent) stepAH() {
	for j, phi := range a.phi {
		// φ_j's hops are S_j: every event that can move S_j rebuilt it.
		if len(phi) < 2 || !phi.Weighted() {
			continue
		}
		jid := graph.NodeID(j)
		succ := a.proto.Successors(jid)
		if a.cfg.AHDamping > 0 {
			alloc.AdjustDamped(phi, a.shortDists(jid, succ), a.cfg.AHDamping)
		} else {
			alloc.AH(phi, a.shortDists(jid, succ))
		}
		a.allocStep(telemetry.KindAllocAdjust, jid, succ)
	}
}

// shortDists returns the IH and AH marginal distances toward j through
// each k of succ (ascending), D_jk + l_ik with the short-term link cost:
// +Inf through a neighbor without a link record. It walks the links beside
// succ and fills the agent's scratch, valid until the next call.
func (a *Agent) shortDists(j graph.NodeID, succ []graph.NodeID) []float64 {
	t := a.proto.Tables()
	d := a.dist[:0]
	i := 0
	for _, k := range succ {
		for i < len(a.links) && a.links[i].to < k {
			i++
		}
		if i < len(a.links) && a.links[i].to == k {
			d = append(d, t.NbrDist(j, k)+a.links[i].short)
		} else {
			d = append(d, math.Inf(1))
		}
	}
	a.dist = d
	return d
}

// tlTick measures each link's flow over the elapsed long-term window ("link
// costs measured over longer intervals of length Tl are used for
// routing-path computation"), folds it into the advertised EWMA, and feeds
// changes to MPDA.
func (a *Agent) tlTick() {
	elapsed := a.host.Now() - a.lastTl
	for i := range a.links {
		l := &a.links[i]
		if !a.cfg.UseOnlineEstimator {
			_, _, cur := a.host.Link(l.to)
			if c, ok := a.measure(l.to, cur-l.tlSnap, elapsed); ok {
				l.long.Update(c)
			}
		}
		c := quantizeCost(l.long.Value())
		// Quantized costs compare exactly.
		if cur, ok := a.proto.Tables().AdjCost(l.to); !ok || cur != c {
			a.proto.LinkCostChange(l.to, c)
		}
	}
	a.openTlWindow()
	a.refreshAllocations()
	a.host.After(tlClock, a.cfg.Tl, a.tlTick)
	// With a fixed cost window configured, re-open the window that much
	// before the next tick so it sees only the trailing part of the period.
	if w := a.cfg.CostMeasureWindow; w > 0 && w < a.cfg.Tl {
		a.host.After(tlWindow, a.cfg.Tl-w, a.openTlWindow)
	}
}

// openTlWindow opens the long-term window at the current instant and counters.
func (a *Agent) openTlWindow() {
	a.lastTl = a.host.Now()
	for i := range a.links {
		_, _, a.links[i].tlSnap = a.host.Link(a.links[i].to)
	}
}

// HandleLSU processes an LSU from a neighbor. A crashed agent ignores it.
// It borrows m for the call and keeps nothing of it.
func (a *Agent) HandleLSU(m *lsu.Msg) {
	if a.down {
		return
	}
	if a.sink != nil {
		now := a.host.Now()
		ev := telemetry.NewEvent(now, telemetry.KindLSURecv, a.id)
		ev.Peer = m.From
		ev.Value = float64(len(m.Entries))
		a.sink.Emit(ev)
		if m.Ack {
			ack := telemetry.NewEvent(now, telemetry.KindLSUAck, a.id)
			ack.Peer = m.From
			a.sink.Emit(ack)
		}
	}
	a.proto.HandleLSU(m)
	a.refreshAllocations()
}

// LinkUp brings up the link to neighbor k at the given cost, which MPDA
// advertises as it is and IH prices the link at.
func (a *Agent) LinkUp(k graph.NodeID, cost float64) {
	if a.down {
		return
	}
	a.links[a.attach(k)].short = cost
	a.proto.LinkUp(k, cost)
	a.refreshAllocations()
}

// LinkCostChange moves the link to neighbor k to cost, priced as LinkUp.
func (a *Agent) LinkCostChange(k graph.NodeID, cost float64) {
	if a.down {
		return
	}
	if l := a.link(k); l != nil {
		l.short = cost
	}
	a.proto.LinkCostChange(k, cost)
	a.refreshAllocations()
}

// LinkDown tells the protocol the link to neighbor k went down.
func (a *Agent) LinkDown(k graph.NodeID) {
	if a.down {
		return
	}
	a.proto.LinkDown(k)
	a.refreshAllocations()
}

// LinkRecovered brings the link to k back at its idle cost, as Start does;
// with no record of k it does nothing.
func (a *Agent) LinkRecovered(k graph.NodeID) {
	l := a.link(k)
	if a.down || l == nil {
		return
	}
	c := a.costAt(k, 0)
	l.short = c
	l.long.Update(c)
	a.proto.LinkUp(k, quantizeCost(c))
	a.refreshAllocations()
}

// refreshAllocations re-runs IH for each destination whose S_j changed since
// φ_j was built ("When S_j is computed for the first time or recomputed
// again due to long-term route changes, traffic should be freshly
// distributed"). Only a set TakeMoved names can have; they come ascending.
func (a *Agent) refreshAllocations() {
	if a.cfg.Mode != ModeMP {
		return
	}
	for _, j := range a.proto.TakeMoved() {
		if succ := a.proto.Successors(j); j != a.id && !a.phi[j].Over(succ) {
			a.buildIH(j, succ)
		}
	}
}

// buildIH distributes j's traffic afresh over succ by IH, in the storage
// φ_j already has.
func (a *Agent) buildIH(j graph.NodeID, succ []graph.NodeID) {
	a.phi[j] = alloc.IH(a.phi[j], succ, a.shortDists(j, succ))
	a.allocStep(telemetry.KindAllocInit, j, succ)
}
