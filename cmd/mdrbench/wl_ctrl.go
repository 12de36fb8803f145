package main

import (
	"fmt"
	"math"

	"minroute/internal/graph"
	"minroute/internal/lfi"
	"minroute/internal/lsu"
	"minroute/internal/mpda"
	"minroute/internal/node"
	"minroute/internal/oracle"
	"minroute/internal/protonet"
	"minroute/internal/rng"
)

// protoCost is the protocol-level link cost shared by the protonet and
// live workloads (the repo's idiom: propagation delay plus a per-hop
// charge), so a converged distance reads as an unloaded path delay in
// seconds.
func protoCost(l *graph.Link) float64 { return l.PropDelay + 1e-4 }

// deliveryBudget bounds protonet delivery attempts per quiescence run;
// exceeding it panics inside protonet, which the harness reports as a
// failed operation.
const deliveryBudget = 50_000_000

// timedNode sits between protonet and one mpda.Router. It counts the calls
// that ran the MTU — a router runs it when the call finds it PASSIVE, or
// when the call delivers the last awaited ACK and so ends its ACTIVE phase,
// which the router's OnPhase hook reports — and, while its network has a
// recorder, makes every call a span.
type timedNode struct {
	r  *mpda.Router
	cn *ctrlNet
}

func (t *timedNode) spanned(name string, call func()) {
	cn := t.cn
	wasPassive, edges := !t.r.Active(), cn.passiveEdges
	if rec := cn.rec; rec != nil {
		id := rec.begin(name)
		call()
		rec.end(id)
	} else {
		call()
	}
	if wasPassive || cn.passiveEdges > edges {
		cn.mtuRuns++
	}
}

func (t *timedNode) HandleLSU(m *lsu.Msg) {
	t.spanned("mpda.handle_lsu", func() { t.r.HandleLSU(m) })
}

func (t *timedNode) LinkUp(k graph.NodeID, cost float64) {
	t.spanned("mpda.link_event", func() { t.r.LinkUp(k, cost) })
}

func (t *timedNode) LinkCostChange(k graph.NodeID, cost float64) {
	t.spanned("mpda.link_event", func() { t.r.LinkCostChange(k, cost) })
}

func (t *timedNode) LinkDown(k graph.NodeID) {
	t.spanned("mpda.link_event", func() { t.r.LinkDown(k) })
}

// ctrlNet is a protonet harness with one MPDA router per node and the
// ground truth the oracles audit it against.
type ctrlNet struct {
	g       *graph.Graph
	net     *protonet.Net
	routers map[graph.NodeID]*mpda.Router
	// cost overrides protoCost for directed links a churn event changed.
	cost map[[2]graph.NodeID]float64
	// rec, while non-nil, receives a span per call into a router.
	rec *recorder
	// passiveEdges counts ACTIVE→PASSIVE transitions over all routers;
	// mtuRuns the router calls that ran the MTU (see timedNode).
	passiveEdges, mtuRuns int
}

func newCtrlNet(g *graph.Graph, seed uint64, rec *recorder) *ctrlNet {
	cn := &ctrlNet{
		g:       g,
		net:     protonet.New(g, seed),
		routers: make(map[graph.NodeID]*mpda.Router, g.NumNodes()),
		cost:    make(map[[2]graph.NodeID]float64),
		rec:     rec,
	}
	for _, id := range g.Nodes() {
		r := mpda.NewRouter(id, g.NumNodes(), cn.net.Sender(id))
		r.OnPhase = func(active bool) {
			if !active {
				cn.passiveEdges++
			}
		}
		cn.routers[id] = r
		cn.net.Attach(id, &timedNode{r: r, cn: cn})
	}
	return cn
}

func (cn *ctrlNet) costOf(l *graph.Link) float64 {
	if c, ok := cn.cost[[2]graph.NodeID{l.From, l.To}]; ok {
		return c
	}
	return protoCost(l)
}

// quiesce delivers messages until none is pending and returns the host
// time it took. A protocol that fails to quiesce within the budget is a
// failed operation, not a crash.
func (cn *ctrlNet) quiesce(c *runCtx) (seconds float64) {
	defer func() {
		if p := recover(); p != nil {
			c.op(1)
			c.failf("protonet.Run: %v", p)
		}
	}()
	cn.rec.do("protonet.run", func() {
		seconds = timeIt(func() { cn.net.Run(deliveryBudget) })
	})
	return seconds
}

// audit runs the three oracles at quiescence, one operation each:
// no router stuck ACTIVE, distances and successor sets equal Dijkstra on
// the true graph (Theorem 4), and every successor graph acyclic (LFI).
func (cn *ctrlNet) audit(c *runCtx, what string) {
	active := make(map[graph.NodeID]oracle.ActiveView, len(cn.routers))
	proto := make(map[graph.NodeID]oracle.ProtocolView, len(cn.routers))
	views := make(map[graph.NodeID]lfi.RouterView, len(cn.routers))
	for _, id := range cn.g.Nodes() {
		r := cn.routers[id]
		active[id], proto[id], views[id] = r, r, r
	}
	c.check(what+": quiescence", oracle.Quiescent(active, cn.net.Pending()))
	c.check(what+": convergence", oracle.Convergence(cn.g, cn.costOf, proto))
	c.check(what+": loop-freedom", lfi.CheckAllDestinations(cn.g.NumNodes(), views))
}

// finish fills the outputs every protonet repetition reports once its wall
// time is known: the final distance tables' hash, the mean converged path
// cost, the LSU count and, under tracing, what the router spans say.
func (cn *ctrlNet) finish(out *repOut) {
	rec := cn.rec
	var d digest
	sum, pairs := 0.0, 0
	for _, id := range cn.g.Nodes() {
		r := cn.routers[id]
		d.str(node.RouterSummary(r))
		for j := 0; j < cn.g.NumNodes(); j++ {
			if dist := r.Dist(graph.NodeID(j)); graph.NodeID(j) != id && !math.IsInf(dist, 1) {
				sum += dist
				pairs++
			}
		}
	}
	delivered := float64(cn.net.Delivered())
	d.ints(int64(cn.net.Delivered()))
	out.hash = d.sum()
	out.delayMs = sum / float64(pairs) * 1e3
	out.delivery = delivered / (delivered + float64(cn.net.Pending()))
	out.layer["lsu_msgs"] = delivered
	out.counts.shape = "n160"
	if rec != nil {
		calls := rec.durations("mpda.handle_lsu")
		sorted := sortedCopy(calls)
		busy := rec.total("mpda.handle_lsu") + rec.total("mpda.link_event")
		out.counts.mpdaBusyS = busy
		out.layer["mpda.calls"] = float64(len(calls))
		out.layer["mpda.handle_lsu_us_p50"] = percentile(sorted, 50) * 1e6
		out.layer["mpda.handle_lsu_us_p99"] = percentile(sorted, 99) * 1e6
		out.layer["mpda.busy_s"] = busy
		out.layer["mpda.busy_share"] = busy / out.wallS
		out.layer["protonet.self_s"] = out.wallS - busy
		out.layer["mpda.link_event_us"] = median(rec.durations("mpda.link_event")) * 1e6
	}
}

// ctrlColdRep is the cold-start flood: every link announced at once, then
// delivery to quiescence, tables growing from empty.
func ctrlColdRep(c *runCtx, rec *recorder) repOut {
	out := repOut{layer: make(map[string]float64)}
	cn, setupS := timeSetup(func() *ctrlNet {
		return newCtrlNet(scaleFree(c.pick(240, 32)).Graph, c.seed, rec)
	}, nil)
	out.setupS = setupS
	bringUpS := timeIt(func() { cn.net.BringUpAll(protoCost) })
	out.wallS = bringUpS + cn.quiesce(c)
	cn.audit(c, "cold boot")
	cn.finish(&out)
	out.events, out.eventsS = float64(cn.net.Delivered()), out.wallS
	out.counts.lsus, out.counts.mtuRuns = out.events, float64(cn.mtuRuns)
	return out
}

// churnEvent is one seeded single-link change.
type churnEvent struct {
	kind string // "up", "down", "fail", "restore"
	a, b graph.NodeID
	// capacity and prop restore a failed link as it was.
	capacity, prop float64
}

func (e churnEvent) String() string { return fmt.Sprintf("%s %d-%d", e.kind, e.a, e.b) }

// churnSchedule returns n single-link events: cost doublings each
// followed by the same link's cost halving back, and failures of non-bridge
// links each followed by the restoration. Which links change is part of the
// workload's definition and comes from structureSeed — a hub's link floods
// an order of magnitude further than a leaf's, so drawing the links per
// seed would move the work by a factor of three; the run's seed shuffles
// the order the pairs happen in (and, through protonet, how every flood
// interleaves). Every event leaves the graph connected, so no operation
// can fail for lack of a path.
func churnSchedule(g *graph.Graph, seed uint64, n int) []churnEvent {
	r := rng.New(structureSeed).Split(0xc4a2)
	links := g.Links()
	var pairs [][2]churnEvent
	for 2*len(pairs) < n {
		l := links[r.Intn(len(links))]
		if r.Intn(3) < 2 {
			pairs = append(pairs, [2]churnEvent{{kind: "up", a: l.From, b: l.To}, {kind: "down", a: l.From, b: l.To}})
			continue
		}
		probe := g.Clone()
		probe.RemoveLink(l.From, l.To)
		probe.RemoveLink(l.To, l.From)
		if !probe.Connected() {
			continue // a bridge: failing it would partition the graph
		}
		pairs = append(pairs, [2]churnEvent{
			{kind: "fail", a: l.From, b: l.To},
			{kind: "restore", a: l.From, b: l.To, capacity: l.Capacity, prop: l.PropDelay}})
	}
	evs := make([]churnEvent, 0, 2*len(pairs))
	for _, i := range rng.New(seed).Split(0xc4a3).Perm(len(pairs)) {
		evs = append(evs, pairs[i][0], pairs[i][1])
	}
	return evs[:n]
}

// apply performs one event on the converged network.
func (cn *ctrlNet) apply(e churnEvent) {
	key := [2]graph.NodeID{e.a, e.b}
	switch e.kind {
	case "up", "down":
		l, _ := cn.g.Link(e.a, e.b)
		cost := protoCost(l)
		if e.kind == "up" {
			cost *= 2
		}
		cn.cost[key] = cost
		cn.net.ChangeCost(e.a, e.b, cost)
	case "fail":
		delete(cn.cost, key)
		delete(cn.cost, [2]graph.NodeID{e.b, e.a})
		cn.net.FailLink(e.a, e.b)
	case "restore":
		cn.net.RestoreLink(e.a, e.b, e.capacity, e.prop, e.prop+1e-4)
	}
}

// ctrlChurnRep converges sf160 during set-up, then times single-link
// events against full tables, each run to quiescence and audited.
func ctrlChurnRep(c *runCtx, rec *recorder) repOut {
	out := repOut{layer: make(map[string]float64)}
	var cn *ctrlNet
	var events []churnEvent
	out.setupS = timeIt(func() {
		// The cold boot is set-up here and must not pollute the churn
		// spans: the recorder goes on after it.
		cn = newCtrlNet(scaleFree(c.pick(160, 24)).Graph, c.seed, nil)
		cn.net.BringUpAll(protoCost)
		cn.quiesce(c)
		events = churnSchedule(cn.g, c.seed, c.pick(24, 6))
	})
	cn.audit(c, "cold boot")
	cn.rec = rec
	before, mtuBefore := cn.net.Delivered(), cn.mtuRuns
	for _, e := range events {
		out.wallS += timeIt(func() { cn.apply(e) })
		out.wallS += cn.quiesce(c)
		cn.audit(c, e.String())
	}
	cn.finish(&out)
	out.events, out.eventsS = float64(cn.net.Delivered()-before), out.wallS
	out.layer["lsu_msgs"] = out.events
	out.counts.lsus, out.counts.mtuRuns = out.events, float64(cn.mtuRuns-mtuBefore)
	return out
}
