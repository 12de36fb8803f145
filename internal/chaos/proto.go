package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"minroute/internal/graph"
	"minroute/internal/lfi"
	"minroute/internal/oracle"
	"minroute/internal/protonet"
	"minroute/internal/router"
	"minroute/internal/telemetry"
	"minroute/internal/topo"
)

// protoBudget bounds delivery attempts per scenario; exceeding it is a
// quiescence violation, not a crash.
const protoBudget = 8_000_000

// Result is the outcome of one chaos run.
type Result struct {
	// Log holds per-oracle execution counts and any violations.
	Log *oracle.Log
	// Trace is the deterministic run transcript; TraceHash is its SHA-256.
	// Two runs of the same scenario must produce identical hashes.
	Trace     string
	TraceHash string
	// Events counts protonet delivery attempts or DES events fired.
	Events int64
}

// Failed reports whether any oracle fired.
func (r *Result) Failed() bool { return r.Log.Failed() }

func finishTrace(b *strings.Builder, log *oracle.Log) (string, string) {
	for _, c := range log.Counts() {
		// The adjacency oracle runs once per applied action plus once at the
		// end, so its count restates the schedule. It stays out of the hashed
		// transcript (Result.Log carries it): the checked-in fixture hashes
		// pin protocol behavior, not the oracle roster.
		if c.Check == oracle.CheckAdjacencyName {
			continue
		}
		fmt.Fprintf(b, "check %s ran %d\n", c.Check, c.Count)
	}
	for _, v := range log.Violations {
		fmt.Fprintf(b, "VIOLATION %s\n", v)
	}
	trace := b.String()
	sum := sha256.Sum256([]byte(trace))
	return trace, hex.EncodeToString(sum[:])
}

type linkParams struct {
	capacity, prop, cost float64
}

func linkKey(a, b graph.NodeID) [2]graph.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]graph.NodeID{a, b}
}

// protoState tracks the effective fault state so that any action sequence —
// including the scrambled ones the shrinker and fuzzer produce — is valid:
// a link is up iff it is not explicitly failed and neither endpoint is
// crashed, and every apply is reconciled against that rule.
type protoState struct {
	net *protonet.Net
	g   *graph.Graph
	// agents holds one routing agent per router, indexed by ID.
	agents  []*router.Agent
	views   map[graph.NodeID]lfi.RouterView
	base    map[[2]graph.NodeID]linkParams
	cost    map[[2]graph.NodeID]float64
	failed  map[[2]graph.NodeID]bool
	crashed map[graph.NodeID]bool
	// tel, when non-nil, records the run as a telemetry event timeline.
	// The protocol harness has no simulation clock, so event timestamps are
	// the delivery-attempt count — still monotone and deterministic.
	tel *telemetry.Capture
	// host is what the harness attaches for an agent (see runProto).
	host func(*router.Agent) protonet.Node
}

// now is the protocol harness's timebase: delivery attempts so far.
func (st *protoState) now() float64 { return float64(st.net.Attempts()) }

// boot attaches a fresh agent for router id, at the start of a run and on
// each restart.
func (st *protoState) boot(id graph.NodeID) {
	// The scenario prices every link, and the harness forwards nothing, so
	// φ goes nowhere.
	a := router.NewAgent(id, len(st.agents), router.Config{}, router.ClocklessHost{Clock: st.now, Send: st.net.Sender(id)}, nil)
	if st.tel != nil {
		a.Observe(st.tel.Trace, nil)
	}
	st.agents[id] = a
	st.views[id] = a.Protocol()
	st.net.Attach(id, st.host(a))
}

// emitFault records one injected fault marker in the network-scope ring.
func (st *protoState) emitFault(k telemetry.Kind, label string) {
	if st.tel == nil {
		return
	}
	ev := telemetry.NewEvent(st.now(), k, graph.None)
	ev.Label = label
	st.tel.Trace.Emit(ev)
}

func (st *protoState) costOf(a, b graph.NodeID) float64 { return st.cost[linkKey(a, b)] }

// linkUp is the effective link state: not explicitly failed, neither
// endpoint crashed.
func (st *protoState) linkUp(a, b graph.NodeID) bool {
	return !st.failed[linkKey(a, b)] && !st.crashed[a] && !st.crashed[b]
}

// checkAdjacency audits every live router's adjacent-link table against
// linkUp (see the DES runner's checkAdjacency for the cadence).
func (st *protoState) checkAdjacency(log *oracle.Log) {
	var live []oracle.AdjacencyView
	for _, id := range st.g.Nodes() {
		if !st.crashed[id] {
			live = append(live, st.agents[id].Protocol().Tables())
		}
	}
	log.Record(oracle.CheckAdjacencyName)
	if err := oracle.Adjacency(live, st.linkUp); err != nil {
		log.Violate(oracle.CheckAdjacencyName, err.Error(), int64(st.net.Attempts()), 0)
	}
}

func (st *protoState) apply(act Action) {
	switch act.Kind {
	case KindFail:
		key := linkKey(act.A, act.B)
		st.emitFault(telemetry.KindFaultStart, fmt.Sprintf("link-fail %d-%d", act.A, act.B))
		if _, up := st.g.Link(act.A, act.B); up {
			st.net.FailLink(act.A, act.B)
		}
		st.failed[key] = true
	case KindRestore:
		key := linkKey(act.A, act.B)
		st.emitFault(telemetry.KindFaultStop, fmt.Sprintf("link-restore %d-%d", act.A, act.B))
		st.failed[key] = false
		st.restoreIfDue(key)
	case KindCost:
		st.emitFault(telemetry.KindFaultStart, fmt.Sprintf("cost %d-%d x%g", act.A, act.B, act.Factor))
		key := linkKey(act.A, act.B)
		st.cost[key] = st.base[key].cost * act.Factor
		if _, up := st.g.Link(act.A, act.B); up {
			st.net.ChangeCost(act.A, act.B, st.cost[key])
			st.net.ChangeCost(act.B, act.A, st.cost[key])
		}
	case KindCrash:
		v := act.Node
		if st.crashed[v] {
			return
		}
		st.emitFault(telemetry.KindFaultStart, fmt.Sprintf("crash %d", v))
		st.crashed[v] = true
		delete(st.views, v)
		nbrs := append([]graph.NodeID(nil), st.g.Neighbors(v)...)
		for _, k := range nbrs {
			st.net.FailLink(v, k)
		}
	case KindRestart:
		v := act.Node
		if !st.crashed[v] {
			return
		}
		st.emitFault(telemetry.KindFaultStop, fmt.Sprintf("restart %d", v))
		st.crashed[v] = false
		st.net.Detach(v)
		st.boot(v)
		// Ascending by neighbor, which is ascending by link key: the order of
		// the LinkUps decides the order of the LSUs they cause.
		for k := 0; k < len(st.agents); k++ {
			key := linkKey(v, graph.NodeID(k))
			if _, adjacent := st.base[key]; adjacent {
				st.restoreIfDue(key)
			}
		}
	case KindPerturb:
		st.emitFault(telemetry.KindFaultStart, fmt.Sprintf("perturb loss=%g dup=%g", act.Loss, act.Dup))
		st.net.SetPerturb(protonet.Perturb{LossProb: act.Loss, DupProb: act.Dup})
	}
}

// restoreIfDue brings key back up when the effective state says it should
// be: not explicitly failed, neither endpoint crashed, not already present.
func (st *protoState) restoreIfDue(key [2]graph.NodeID) {
	if !st.linkUp(key[0], key[1]) {
		return
	}
	if _, up := st.g.Link(key[0], key[1]); up {
		return
	}
	p := st.base[key]
	st.net.RestoreLink(key[0], key[1], p.capacity, p.prop, st.cost[key])
}

// RunProto executes the scenario against the protocol-level harness: one
// MPDA router per node on a protonet, the loop-freedom and FD-ordering
// oracles armed after every delivery, actions applied at their Steps
// coordinates, and — after the network quiesces — the quiescence and
// Theorem 4 convergence oracles checked against Dijkstra ground truth on
// the surviving topology.
func RunProto(s *Scenario) (*Result, error) { return RunProtoWith(s, nil) }

// RunProtoWith is RunProto with an optional telemetry capture: phase
// transitions, message deliveries, table commits, allocation steps and
// injected faults land in tel, timestamped by delivery attempt. `mdrsim
// -fuzz` ships this timeline alongside shrunk reproducers.
func RunProtoWith(s *Scenario, tel *telemetry.Capture) (*Result, error) {
	return runProto(s, tel, func(a *router.Agent) protonet.Node { return a })
}

// runProto is RunProtoWith with the harness reaching each agent through
// host(a): tests interpose a per-event check there.
func runProto(s *Scenario, tel *telemetry.Capture, host func(*router.Agent) protonet.Node) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	tn, err := s.Network()
	if err != nil {
		return nil, err
	}
	g := tn.Graph
	st := &protoState{
		net:     protonet.New(g, s.Seed),
		g:       g,
		agents:  make([]*router.Agent, g.NumNodes()),
		views:   make(map[graph.NodeID]lfi.RouterView),
		base:    make(map[[2]graph.NodeID]linkParams),
		cost:    make(map[[2]graph.NodeID]float64),
		failed:  make(map[[2]graph.NodeID]bool),
		crashed: make(map[graph.NodeID]bool),
		tel:     tel,
		host:    host,
	}
	for _, l := range g.Links() {
		if l.From < l.To {
			key := linkKey(l.From, l.To)
			st.base[key] = linkParams{capacity: l.Capacity, prop: l.PropDelay, cost: topo.PropCost(l)}
			st.cost[key] = st.base[key].cost
		}
	}
	for _, id := range g.Nodes() {
		st.boot(id)
	}

	log := oracle.NewLog()
	st.net.OnDeliver = func() {
		log.Record(oracle.CheckLoopFreeName)
		if err := oracle.LoopFree(len(st.agents), st.views); err != nil {
			log.Violate(oracle.CheckLoopFreeName, err.Error(), int64(st.net.Attempts()), 0)
		}
	}

	var trace strings.Builder
	fmt.Fprintf(&trace, "scenario %s topo=%s seed=%d proto\n", s.Name, s.Topo, s.Seed)
	st.net.BringUpAll(func(l *graph.Link) float64 { return st.costOf(l.From, l.To) })

	quiesced := runProtoSchedule(st, s, &trace, log)
	st.checkAdjacency(log)

	if quiesced {
		activeViews := make(map[graph.NodeID]oracle.ActiveView, len(st.agents))
		protoViews := make(map[graph.NodeID]oracle.ProtocolView, len(st.agents))
		for _, id := range g.Nodes() {
			if st.crashed[id] {
				continue
			}
			activeViews[id] = st.agents[id].Protocol()
			protoViews[id] = st.agents[id].Protocol()
		}
		ev := int64(st.net.Attempts())
		log.Record(oracle.CheckQuiescenceName)
		if err := oracle.Quiescent(activeViews, st.net.Pending()); err != nil {
			log.Violate(oracle.CheckQuiescenceName, err.Error(), ev, 0)
		}
		log.Record(oracle.CheckConvergenceName)
		if err := oracle.Convergence(g, func(l *graph.Link) float64 { return st.costOf(l.From, l.To) }, protoViews); err != nil {
			log.Violate(oracle.CheckConvergenceName, err.Error(), ev, 0)
		}
	}

	writeProtoTables(&trace, st)
	fmt.Fprintf(&trace, "attempts %d delivered %d\n", st.net.Attempts(), st.net.Delivered())
	res := &Result{Log: log, Events: int64(st.net.Attempts())}
	res.Trace, res.TraceHash = finishTrace(&trace, log)
	return res, nil
}

// runProtoSchedule drives deliveries with actions interleaved at their
// Steps coordinates. It reports whether the run quiesced within budget (a
// budget overrun is recorded as a quiescence violation).
func runProtoSchedule(st *protoState, s *Scenario, trace *strings.Builder, log *oracle.Log) bool {
	// steps delivers until the attempt count reaches target (with target
	// negative, until quiescence), reporting false on a budget overrun.
	steps := func(target int) bool {
		for target < 0 || st.net.Attempts() < target {
			if !st.net.Step() {
				return true // quiescent before target; keep schedule moving
			}
			if st.net.Attempts() > protoBudget {
				log.Violate(oracle.CheckQuiescenceName,
					"protocol did not quiesce within delivery budget", int64(st.net.Attempts()), 0)
				return false
			}
		}
		return true
	}
	for _, act := range s.Actions {
		if !steps(st.net.Attempts() + act.Steps) {
			return false
		}
		fmt.Fprintf(trace, "apply %s at attempts=%d delivered=%d\n", act, st.net.Attempts(), st.net.Delivered())
		st.apply(act)
		st.checkAdjacency(log)
	}
	return steps(-1)
}

// writeProtoTables appends every live router's distance vector to the
// trace, in ID order, making the hash sensitive to the full converged state.
func writeProtoTables(trace *strings.Builder, st *protoState) {
	for i, a := range st.agents {
		id := graph.NodeID(i)
		if st.crashed[id] {
			fmt.Fprintf(trace, "router %d crashed\n", id)
			continue
		}
		r := a.Protocol()
		fmt.Fprintf(trace, "router %d D=[", id)
		for j := 0; j < len(st.agents); j++ {
			if j > 0 {
				trace.WriteByte(' ')
			}
			fmt.Fprintf(trace, "%.9g", r.Dist(graph.NodeID(j)))
		}
		trace.WriteString("]\n")
	}
}
