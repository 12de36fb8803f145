package oracle

import (
	"strings"
	"testing"

	"minroute/internal/alloc"
	"minroute/internal/graph"
	"minroute/internal/lfi"
	"minroute/internal/lsu"
	"minroute/internal/mpda"
	"minroute/internal/protonet"
	"minroute/internal/topo"
)

// fakeRouter is a hand-built RouterView/ProtocolView for mutation doubles:
// each test constructs the precise broken state its oracle must catch.
type fakeRouter struct {
	id     graph.NodeID
	fd     map[graph.NodeID]float64
	dist   map[graph.NodeID]float64
	succ   map[graph.NodeID][]graph.NodeID
	active bool
}

func (f *fakeRouter) ID() graph.NodeID            { return f.id }
func (f *fakeRouter) FD(j graph.NodeID) float64   { return f.fd[j] }
func (f *fakeRouter) Dist(j graph.NodeID) float64 { return f.dist[j] }
func (f *fakeRouter) Active() bool                { return f.active }
func (f *fakeRouter) Successors(j graph.NodeID) []graph.NodeID {
	return f.succ[j]
}

// TestLoopFreeCatchesCycle mutates two routers into a 2-cycle for
// destination 2 and demands the loop-free oracle fires.
func TestLoopFreeCatchesCycle(t *testing.T) {
	a := &fakeRouter{id: 0, fd: map[graph.NodeID]float64{2: 1},
		succ: map[graph.NodeID][]graph.NodeID{2: {1}}}
	b := &fakeRouter{id: 1, fd: map[graph.NodeID]float64{2: 1},
		succ: map[graph.NodeID][]graph.NodeID{2: {0}}}
	views := map[graph.NodeID]lfi.RouterView{0: a, 1: b}
	err := LoopFree(3, views)
	if err == nil || !strings.Contains(err.Error(), "loop") {
		t.Fatalf("loop-free oracle missed the 0<->1 cycle: %v", err)
	}
}

// TestLoopFreeCatchesFDOrdering admits a successor whose feasible distance
// equals (not strictly undercuts) the router's own — acyclic, but a breach
// of the Theorem 1 ordering the LFI conditions guarantee.
func TestLoopFreeCatchesFDOrdering(t *testing.T) {
	a := &fakeRouter{id: 0, fd: map[graph.NodeID]float64{2: 1},
		succ: map[graph.NodeID][]graph.NodeID{2: {1}}}
	b := &fakeRouter{id: 1, fd: map[graph.NodeID]float64{2: 1},
		succ: map[graph.NodeID][]graph.NodeID{2: {2}}}
	views := map[graph.NodeID]lfi.RouterView{0: a, 1: b}
	err := LoopFree(3, views)
	if err == nil || !strings.Contains(err.Error(), "FD") {
		t.Fatalf("FD-ordering oracle missed FD^1 == FD^0: %v", err)
	}
}

func TestLoopFreePassesCleanGraph(t *testing.T) {
	a := &fakeRouter{id: 0, fd: map[graph.NodeID]float64{2: 2},
		succ: map[graph.NodeID][]graph.NodeID{2: {1}}}
	b := &fakeRouter{id: 1, fd: map[graph.NodeID]float64{2: 1},
		succ: map[graph.NodeID][]graph.NodeID{2: {2}}}
	views := map[graph.NodeID]lfi.RouterView{0: a, 1: b}
	if err := LoopFree(3, views); err != nil {
		t.Fatalf("clean successor graph flagged: %v", err)
	}
}

// TestSimplexCatchesMutations drives every breach of Property 1 through
// the φ oracle.
func TestSimplexCatchesMutations(t *testing.T) {
	succ := []graph.NodeID{1, 2}
	cases := []struct {
		name string
		phi  alloc.Split
		want string
	}{
		{"bad-sum", alloc.Split{{Hop: 1, Frac: 0.5}, {Hop: 2, Frac: 0.4}}, "sum"},
		{"negative", alloc.Split{{Hop: 1, Frac: 1.5}, {Hop: 2, Frac: -0.5}}, "negative"},
		{"off-support", alloc.Split{{Hop: 1, Frac: 0.5}, {Hop: 3, Frac: 0.5}}, "non-successor"},
		{"descending", alloc.Split{{Hop: 2, Frac: 0.5}, {Hop: 1, Frac: 0.5}}, "ascend"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := Simplex(c.phi, succ)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("simplex oracle missed %s: %v", c.name, err)
			}
		})
	}
	if err := Simplex(alloc.Split{{Hop: 1, Frac: 0.5}, {Hop: 2, Frac: 0.5}}, succ); err != nil {
		t.Fatalf("valid simplex flagged: %v", err)
	}
	// nil φ with successors present is the legitimate pre-IH state.
	if err := Simplex(nil, succ); err != nil {
		t.Fatalf("nil φ flagged: %v", err)
	}
}

// TestConservationCatchesLeak unbalances the ledger one packet in each
// direction (a leak and a double count) and demands the oracle fires.
func TestConservationCatchesLeak(t *testing.T) {
	ok := Ledger{Offered: 10, Delivered: 6, RouterDrops: 2, PortLost: 1, InFlight: 1}
	if err := Conservation(ok); err != nil {
		t.Fatalf("balanced ledger flagged: %v", err)
	}
	leak := ok
	leak.Delivered--
	if err := Conservation(leak); err == nil {
		t.Fatal("conservation oracle missed a leaked packet")
	}
	double := ok
	double.RouterDrops++
	if err := Conservation(double); err == nil {
		t.Fatal("conservation oracle missed a double-counted packet")
	}
}

// TestQuiescentCatchesStuckActive mutates a router into the ACTIVE phase
// with no messages pending — an ACK that will never arrive.
func TestQuiescentCatchesStuckActive(t *testing.T) {
	stuck := &fakeRouter{id: 1, active: true}
	views := map[graph.NodeID]ActiveView{0: &fakeRouter{id: 0}, 1: stuck}
	err := Quiescent(views, 0)
	if err == nil || !strings.Contains(err.Error(), "ACTIVE") {
		t.Fatalf("quiescence oracle missed stuck-ACTIVE router: %v", err)
	}
	// With messages still pending, ACTIVE is the normal protocol phase.
	if err := Quiescent(views, 3); err != nil {
		t.Fatalf("in-flight ACTIVE flagged: %v", err)
	}
	stuck.active = false
	if err := Quiescent(views, 0); err != nil {
		t.Fatalf("passive quiescent network flagged: %v", err)
	}
}

// adjTable is a hand-built AdjacencyView.
type adjTable struct {
	id   graph.NodeID
	nbrs []graph.NodeID
}

func (a adjTable) ID() graph.NodeID          { return a.id }
func (a adjTable) Neighbors() []graph.NodeID { return a.nbrs }

// TestAdjacencyCatchesDeadLinkBelief: router 0 still holds a cost for
// neighbor 1 after the harness took link 0-1 down.
func TestAdjacencyCatchesDeadLinkBelief(t *testing.T) {
	down := map[[2]graph.NodeID]bool{}
	linkUp := func(a, b graph.NodeID) bool { return !down[[2]graph.NodeID{a, b}] }
	live := []AdjacencyView{adjTable{0, []graph.NodeID{1, 5}}, adjTable{5, []graph.NodeID{0, 4}}}
	if err := Adjacency(live, linkUp); err != nil {
		t.Fatalf("agreeing tables flagged: %v", err)
	}
	down[[2]graph.NodeID{0, 1}] = true
	err := Adjacency(live, linkUp)
	if err == nil || !strings.Contains(err.Error(), "router 0") || !strings.Contains(err.Error(), "0-1") {
		t.Fatalf("adjacency oracle missed a belief in dead link 0-1: %v", err)
	}
}

// convergedNet runs MPDA to quiescence on a ring and returns the pieces the
// convergence oracle needs.
func convergedNet(t *testing.T) (*graph.Graph, func(l *graph.Link) float64, map[graph.NodeID]*mpda.Router) {
	t.Helper()
	g := topo.Ring(5, 1e6, 1e-3)
	cost := topo.PropCost
	net := protonet.New(g, 7)
	routers := make(map[graph.NodeID]*mpda.Router)
	for _, id := range g.Nodes() {
		r := mpda.NewRouter(id, g.NumNodes(), net.Sender(id))
		routers[id] = r
		net.Attach(id, r)
	}
	net.BringUpAll(cost)
	net.Run(100000)
	return g, cost, routers
}

// TestConvergenceCatchesMutations converges a real MPDA network, verifies
// the oracle passes, then mutates the ground truth out from under it (a
// cost the protocol never saw) so distances and successor sets are both
// wrong — the oracle must fire on each.
func TestConvergenceCatchesMutations(t *testing.T) {
	g, cost, routers := convergedNet(t)
	views := make(map[graph.NodeID]ProtocolView, len(routers))
	for id, r := range routers {
		views[id] = r
	}
	if err := Convergence(g, cost, views); err != nil {
		t.Fatalf("converged network flagged: %v", err)
	}
	// Mutation: ground-truth costs shift but the protocol's tables do not.
	skewed := func(l *graph.Link) float64 {
		if l.From == 0 || l.To == 0 {
			return cost(l) * 10
		}
		return cost(l)
	}
	if err := Convergence(g, skewed, views); err == nil {
		t.Fatal("convergence oracle missed stale distance tables")
	}
}

// TestConvergenceCatchesWrongSuccessors keeps distances exact but widens
// one successor set with an equal-distance neighbor, violating the strict
// S_ij = {k : D_kj < D_ij} characterization of Theorem 4.
func TestConvergenceCatchesWrongSuccessors(t *testing.T) {
	g, cost, routers := convergedNet(t)
	views := make(map[graph.NodeID]ProtocolView, len(routers))
	for id, r := range routers {
		views[id] = r
	}
	// On an odd ring every router has a unique closer neighbor per
	// destination; admitting the other neighbor keeps distances intact but
	// breaks the successor characterization.
	real := routers[0]
	mutant := &fakeRouter{id: 0,
		dist: map[graph.NodeID]float64{},
		succ: map[graph.NodeID][]graph.NodeID{},
	}
	for j := 0; j < g.NumNodes(); j++ {
		jid := graph.NodeID(j)
		mutant.dist[jid] = real.Dist(jid)
		mutant.succ[jid] = real.Successors(jid)
	}
	mutant.succ[2] = g.Neighbors(0) // both ring neighbors: one is not closer
	views[0] = mutant
	err := Convergence(g, cost, views)
	if err == nil || !strings.Contains(err.Error(), "S =") {
		t.Fatalf("convergence oracle missed inflated successor set: %v", err)
	}
}

// ackStripper is a protocol-level mutation double: it forwards every LSU to
// the wrapped router with the ACK flag cleared, so upstream neighbors wait
// forever for acknowledgments. The quiescence oracle must catch the
// resulting stuck-ACTIVE routers.
type ackStripper struct{ inner *mpda.Router }

func (a *ackStripper) HandleLSU(m *lsu.Msg) {
	m.Ack = false
	if len(m.Entries) > 0 {
		a.inner.HandleLSU(m)
	}
}
func (a *ackStripper) LinkUp(k graph.NodeID, cost float64)         { a.inner.LinkUp(k, cost) }
func (a *ackStripper) LinkCostChange(k graph.NodeID, cost float64) { a.inner.LinkCostChange(k, cost) }
func (a *ackStripper) LinkDown(k graph.NodeID)                     { a.inner.LinkDown(k) }

// TestQuiescentCatchesAckStripping runs real MPDA routers with one node's
// inbound ACKs stripped — a seeded fault in the reliable-delivery machinery
// — and demands the quiescence oracle reports a stuck-ACTIVE router once
// the message exchange dries up.
func TestQuiescentCatchesAckStripping(t *testing.T) {
	g := topo.Ring(4, 1e6, 1e-3)
	cost := func(l *graph.Link) float64 { return l.PropDelay + 1e-4 }
	net := protonet.New(g, 11)
	routers := make(map[graph.NodeID]*mpda.Router)
	views := make(map[graph.NodeID]ActiveView)
	for _, id := range g.Nodes() {
		r := mpda.NewRouter(id, g.NumNodes(), net.Sender(id))
		routers[id] = r
		views[id] = r
		if id == 2 {
			net.Attach(id, &ackStripper{inner: r})
		} else {
			net.Attach(id, r)
		}
	}
	net.BringUpAll(cost)
	net.Run(100000)
	err := Quiescent(views, net.Pending())
	if err == nil || !strings.Contains(err.Error(), "ACTIVE") {
		t.Fatalf("quiescence oracle missed ACK-stripping mutant: %v", err)
	}
}

// TestSuiteRecordsViolations exercises the Log the runners record every
// oracle run into: counts per check, ordered counts output, and violation
// coordinates.
func TestSuiteRecordsViolations(t *testing.T) {
	log := NewLog()
	for sweep := int64(1); sweep <= 2; sweep++ {
		// Record in reverse name order: Counts must sort them.
		log.Record("fails-once")
		if sweep == 2 {
			log.Violate("fails-once", Conservation(Ledger{Offered: 1}).Error(), sweep, float64(sweep)-0.5)
		}
		log.Record("always-ok")
		if log.Failed() != (sweep == 2) {
			t.Fatalf("sweep %d: Failed() = %v", sweep, log.Failed())
		}
	}
	if len(log.Violations) != 1 {
		t.Fatalf("violations = %v", log.Violations)
	}
	v := log.Violations[0]
	if v.Check != "fails-once" || v.Event != 2 || v.Time != 1.5 {
		t.Fatalf("violation coordinates wrong: %+v", v)
	}
	if !strings.Contains(v.String(), "fails-once") {
		t.Fatalf("String() = %q", v.String())
	}
	counts := log.Counts()
	if len(counts) != 2 || counts[0].Check != "always-ok" || counts[0].Count != 2 ||
		counts[1].Check != "fails-once" || counts[1].Count != 2 {
		t.Fatalf("counts = %v", counts)
	}
}
