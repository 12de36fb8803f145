package mpda

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"minroute/internal/dijkstra"
	"minroute/internal/graph"
	"minroute/internal/lfi"
	"minroute/internal/lsu"
	"minroute/internal/numeric"
	"minroute/internal/protonet"
	"minroute/internal/topo"
)

// buildNet wires one MPDA router per node into a protonet harness with the
// loop-freedom and FD-ordering invariants checked after every delivery.
func buildNet(t *testing.T, g *graph.Graph, seed uint64, costOf func(l *graph.Link) float64) (*protonet.Net, map[graph.NodeID]*Router) {
	t.Helper()
	net := protonet.New(g, seed)
	routers := make(map[graph.NodeID]*Router)
	views := make(map[graph.NodeID]lfi.RouterView)
	for _, id := range g.Nodes() {
		r := NewRouter(id, g.NumNodes(), net.Sender(id))
		routers[id] = r
		views[id] = r
		net.Attach(id, r)
	}
	n := g.NumNodes()
	net.OnDeliver = func() {
		if err := lfi.CheckAllDestinations(n, views); err != nil {
			t.Fatal(err)
		}
		if err := lfi.CheckFDOrdering(n, views); err != nil {
			t.Fatal(err)
		}
	}
	net.BringUpAll(costOf)
	return net, routers
}

// checkTheorem4 verifies liveness: distances correct and
// S_j = {k : D_j^k < D_j} at every router.
func checkTheorem4(t *testing.T, g *graph.Graph, routers map[graph.NodeID]*Router, costOf func(l *graph.Link) float64) {
	t.Helper()
	view := dijkstra.GraphView{G: g, Cost: costOf}
	truth := make(map[graph.NodeID]*dijkstra.Result)
	for _, id := range g.Nodes() {
		truth[id] = dijkstra.Run(view, id)
	}
	for _, i := range g.Nodes() {
		r := routers[i]
		if r.Active() {
			t.Fatalf("router %d still ACTIVE after quiescence", i)
		}
		for j := 0; j < g.NumNodes(); j++ {
			jid := graph.NodeID(j)
			got, want := r.Dist(jid), truth[i].Dist[j]
			if math.IsInf(got, 1) != math.IsInf(want, 1) || (!math.IsInf(want, 1) && math.Abs(got-want) > 1e-9) {
				t.Fatalf("router %d: D_%d = %v, want %v", i, j, got, want)
			}
			if jid == i {
				continue
			}
			// Expected successor set from ground truth.
			var want2 []graph.NodeID
			for _, k := range g.Neighbors(i) {
				if numeric.Closer(truth[k].Dist[j], truth[i].Dist[j]) {
					want2 = append(want2, k)
				}
			}
			got2 := r.Successors(jid)
			if len(got2) != len(want2) {
				t.Fatalf("router %d dest %d: S = %v, want %v", i, j, got2, want2)
			}
			for x := range want2 {
				if got2[x] != want2[x] {
					t.Fatalf("router %d dest %d: S = %v, want %v", i, j, got2, want2)
				}
			}
		}
	}
}

func TestMPDAConvergesRing(t *testing.T) {
	g := topo.Ring(6, 1e6, 1e-3)
	net, routers := buildNet(t, g, 1, topo.PropCost)
	net.Run(100000)
	checkTheorem4(t, g, routers, topo.PropCost)
}

func TestMPDAConvergesGrid(t *testing.T) {
	g := topo.Grid(3, 3, 1e6, 1e-3)
	net, routers := buildNet(t, g, 2, topo.PropCost)
	net.Run(100000)
	checkTheorem4(t, g, routers, topo.PropCost)
}

func TestMPDAConvergesCAIRN(t *testing.T) {
	n := topo.CAIRN()
	net, routers := buildNet(t, n.Graph, 3, topo.PropCost)
	net.Run(2000000)
	checkTheorem4(t, n.Graph, routers, topo.PropCost)
}

func TestMPDAConvergesNET1(t *testing.T) {
	n := topo.NET1()
	net, routers := buildNet(t, n.Graph, 4, topo.PropCost)
	net.Run(1000000)
	checkTheorem4(t, n.Graph, routers, topo.PropCost)
}

// TestMPDAUnequalCostMultipath demonstrates the headline capability: NET1
// node 0 reaches node 8 through successors 1 and 3 even though no two paths
// share a length with the shortest one necessarily.
func TestMPDAUnequalCostMultipath(t *testing.T) {
	n := topo.NET1()
	uniform := func(l *graph.Link) float64 { return 1 }
	net, routers := buildNet(t, n.Graph, 5, uniform)
	net.Run(1000000)
	succ := routers[0].Successors(8)
	if len(succ) != 2 || succ[0] != 1 || succ[1] != 3 {
		t.Fatalf("S_8 at node 0 = %v, want [1 3]", succ)
	}
	// And with asymmetric costs the successor paths have unequal cost.
	weighted := func(l *graph.Link) float64 {
		if l.From == 0 && l.To == 1 || l.From == 1 && l.To == 0 {
			return 1.5
		}
		return 1
	}
	net2, routers2 := buildNet(t, topo.NET1().Graph, 6, weighted)
	net2.Run(1000000)
	succ2 := routers2[0].Successors(8)
	if len(succ2) < 2 {
		t.Fatalf("expected multipath under unequal costs, got %v", succ2)
	}
	d1 := routers2[0].SuccessorDistance(8, succ2[0])
	d2 := routers2[0].SuccessorDistance(8, succ2[1])
	if d1 == d2 {
		t.Fatalf("successor path costs unexpectedly equal: %v", d1)
	}
}

func TestMPDABestSuccessorMatchesPreferred(t *testing.T) {
	n := topo.NET1()
	net, routers := buildNet(t, n.Graph, 7, topo.PropCost)
	net.Run(1000000)
	for _, i := range n.Graph.Nodes() {
		r := routers[i]
		for j := 0; j < n.Graph.NumNodes(); j++ {
			jid := graph.NodeID(j)
			if jid == i {
				continue
			}
			best := r.BestSuccessor(jid)
			if best == graph.None {
				t.Fatalf("router %d has no successor for %d", i, j)
			}
			// The best successor must achieve D_j = D_jk + l_ik.
			if got, want := r.SuccessorDistance(jid, best), r.Dist(jid); math.Abs(got-want) > 1e-9 {
				t.Fatalf("router %d dest %d: best successor distance %v != D %v", i, j, got, want)
			}
		}
	}
}

func TestMPDALoopFreeUnderCostChurn(t *testing.T) {
	// Repeatedly perturb link costs and deliver messages in random order;
	// the OnDeliver hook asserts loop-freedom after every single delivery.
	g := topo.Grid(3, 3, 1e6, 1e-3)
	costs := map[[2]graph.NodeID]float64{}
	costOf := func(l *graph.Link) float64 {
		if c, ok := costs[[2]graph.NodeID{l.From, l.To}]; ok {
			return c
		}
		return topo.PropCost(l)
	}
	net, routers := buildNet(t, g, 8, costOf)
	net.Run(500000)

	links := g.Links()
	for round := 0; round < 12; round++ {
		l := links[(round*7)%len(links)]
		c := 0.0001 + float64(round%5)*0.002
		costs[[2]graph.NodeID{l.From, l.To}] = c
		net.ChangeCost(l.From, l.To, c)
		// Interleave: deliver only part of the queue before the next change
		// so that multiple transients overlap.
		for i := 0; i < 50 && net.Step(); i++ {
		}
	}
	net.Run(500000)
	checkTheorem4(t, g, routers, costOf)
}

func TestMPDALoopFreeUnderLinkFailures(t *testing.T) {
	g := topo.Grid(3, 3, 1e6, 1e-3)
	net, routers := buildNet(t, g, 9, topo.PropCost)
	net.Run(500000)
	net.FailLink(0, 1)
	for i := 0; i < 30 && net.Step(); i++ {
	}
	net.FailLink(4, 5)
	net.Run(500000)
	checkTheorem4(t, g, routers, topo.PropCost)
}

func TestMPDARecoversAfterPartitionHeals(t *testing.T) {
	g := topo.Ring(4, 1e6, 1e-3)
	net, routers := buildNet(t, g, 10, topo.PropCost)
	net.Run(100000)
	// Partition the ring: nodes {0,1} vs {2,3} by cutting 1-2 and 3-0.
	net.FailLink(1, 2)
	net.FailLink(3, 0)
	net.Run(100000)
	if !math.IsInf(routers[0].Dist(2), 1) {
		t.Fatalf("node 0 still has finite distance to 2 after partition: %v", routers[0].Dist(2))
	}
	net.RestoreLink(1, 2, 1e6, 1e-3, topo.PropCost(&graph.Link{PropDelay: 1e-3}))
	net.Run(100000)
	checkTheorem4(t, g, routers, topo.PropCost)
}

func TestMPDAPropertyRandomGraphsRandomSchedules(t *testing.T) {
	check := func(seed uint64, n8, extra8 uint8) bool {
		n := int(n8%8) + 3
		extra := int(extra8 % 10)
		g := topo.Random(seed, n, extra, 1e6, 1e7, 1e-3)
		net := protonet.New(g, seed^0x5eed)
		routers := make(map[graph.NodeID]*Router)
		views := make(map[graph.NodeID]lfi.RouterView)
		for _, id := range g.Nodes() {
			r := NewRouter(id, g.NumNodes(), net.Sender(id))
			routers[id] = r
			views[id] = r
			net.Attach(id, r)
		}
		ok := true
		net.OnDeliver = func() {
			if lfi.CheckAllDestinations(n, views) != nil || lfi.CheckFDOrdering(n, views) != nil {
				ok = false
			}
		}
		net.BringUpAll(topo.PropCost)
		net.Run(2000000)
		if !ok {
			return false
		}
		// Liveness spot check: distances correct at every router.
		view := dijkstra.GraphView{G: g, Cost: topo.PropCost}
		for _, id := range g.Nodes() {
			truth := dijkstra.Run(view, id)
			for j := 0; j < n; j++ {
				got, want := routers[id].Dist(graph.NodeID(j)), truth.Dist[j]
				if math.IsInf(got, 1) != math.IsInf(want, 1) {
					return false
				}
				if !math.IsInf(want, 1) && math.Abs(got-want) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMPDANilSenderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil sender accepted")
		}
	}()
	NewRouter(0, 3, nil)
}

func TestMPDAIsolatedRouter(t *testing.T) {
	// A router whose only link fails must stay passive and harmless.
	g := topo.Ring(3, 1e6, 1e-3)
	net, routers := buildNet(t, g, 11, topo.PropCost)
	net.Run(100000)
	r := routers[0]
	r.LinkDown(1)
	r.LinkDown(2)
	if r.Active() {
		t.Fatal("isolated router went ACTIVE with no one to wait for")
	}
	for j := 1; j < 3; j++ {
		if !math.IsInf(r.Dist(graph.NodeID(j)), 1) {
			t.Fatalf("isolated router still reaches %d", j)
		}
		if len(r.Successors(graph.NodeID(j))) != 0 {
			t.Fatalf("isolated router has successors for %d", j)
		}
	}
}

// TestMPDAAckPerEntryBearingLSU is the regression test for a stale-ACK bug:
// the full-table sync LinkUp sends to a new neighbor is acknowledged like any
// entry-bearing LSU, so it must be counted in the awaiting bookkeeping. When
// it was not, the sync's ACK acted as a spurious credit that released a later
// ACTIVE phase before the neighbor had applied the flooded change, letting FD
// rise early and breaking the loop-free invariant (a chaos run on CAIRN with
// a link failure mid-convergence produced a persistent two-node loop).
func TestMPDAAckPerEntryBearingLSU(t *testing.T) {
	sent := make(map[graph.NodeID]int) // entry-bearing LSUs sent per neighbor
	r := NewRouter(1, 3, func(to graph.NodeID, m *lsu.Msg) {
		if len(m.Entries) > 0 {
			sent[to]++
		}
	})

	// First link: empty main table, so no sync; the flood announcing the new
	// adjacent link starts an ACTIVE phase awaiting 0's ACK.
	r.LinkUp(0, 1)
	if !r.Active() {
		t.Fatal("router should be ACTIVE after flooding the first link")
	}
	r.HandleLSU(&lsu.Msg{From: 0, Ack: true})
	if r.Active() {
		t.Fatal("router should be PASSIVE after the only outstanding ACK")
	}

	// Second link: the main table is non-empty now, so LinkUp sends a full
	// sync to 2 and then floods the new link to both neighbors. Router 2 owes
	// two ACKs (sync + flood), router 0 owes one.
	r.LinkUp(2, 1)
	if !r.Active() {
		t.Fatal("router should be ACTIVE after flooding the second link")
	}
	if sent[2] != 2 {
		t.Fatalf("neighbor 2 got %d entry-bearing LSUs, want 2 (sync + flood)", sent[2])
	}

	// One ACK from each neighbor must NOT end the phase: 2's first ACK covers
	// the sync, not the flood. The buggy version went PASSIVE here.
	r.HandleLSU(&lsu.Msg{From: 2, Ack: true})
	r.HandleLSU(&lsu.Msg{From: 0, Ack: true})
	if !r.Active() {
		t.Fatal("router left ACTIVE while neighbor 2's flood ACK is outstanding")
	}
	r.HandleLSU(&lsu.Msg{From: 2, Ack: true})
	if r.Active() {
		t.Fatal("router should be PASSIVE once every entry-bearing LSU is acknowledged")
	}
}

// TestMPDAPureAckEndingActivePhaseRaisesFD drives the one event whose
// successor sets move although no table input did: the pure ACK that ends an
// ACTIVE phase. Its NTU and MTU are no-ops, yet step 3 of Fig. 4 may raise
// FD_j to the distance already in D — and S_j = {k | D_jk < FD_j} grows
// with it. Skipping the re-derivation because "the tables are clean" would
// leave the router without a route it is entitled to.
func TestMPDAPureAckEndingActivePhaseRaisesFD(t *testing.T) {
	owed := make(map[graph.NodeID]int) // entry-bearing LSUs not yet acknowledged
	r := NewRouter(0, 4, func(to graph.NodeID, m *lsu.Msg) {
		if len(m.Entries) > 0 {
			owed[to]++
		}
	})
	ackAll := func() {
		for _, k := range []graph.NodeID{1, 2} {
			for ; owed[k] > 0; owed[k]-- {
				r.HandleLSU(&lsu.Msg{From: k, Ack: true})
			}
		}
	}
	r.LinkUp(1, 1)
	ackAll()
	r.LinkUp(2, 1)
	ackAll()
	// Destination 3 sits behind both neighbors: 1 hop past 1, 5 past 2.
	r.HandleLSU(&lsu.Msg{From: 1, Entries: []lsu.Entry{{Op: lsu.OpAdd, Head: 1, Tail: 3, Cost: 1}}})
	ackAll()
	r.HandleLSU(&lsu.Msg{From: 2, Entries: []lsu.Entry{{Op: lsu.OpAdd, Head: 2, Tail: 3, Cost: 5}}})
	ackAll()
	if r.Active() || r.FD(3) != 2 || !slices.Equal(r.Successors(3), []graph.NodeID{1}) {
		t.Fatalf("before the change: active=%v FD_3=%v S_3=%v, want passive, 2, [1]", r.Active(), r.FD(3), r.Successors(3))
	}

	// 1's path to 3 degrades to 10: D_3 becomes 6 through 2, but FD_3 must
	// stay at 2 until the neighbors have acknowledged — so S_3 is empty.
	r.HandleLSU(&lsu.Msg{From: 1, Entries: []lsu.Entry{{Op: lsu.OpChange, Head: 1, Tail: 3, Cost: 10}}})
	if !r.Active() || r.Dist(3) != 6 || r.FD(3) != 2 || len(r.Successors(3)) != 0 {
		t.Fatalf("after the change: active=%v D_3=%v FD_3=%v S_3=%v, want active, 6, 2, []", r.Active(), r.Dist(3), r.FD(3), r.Successors(3))
	}
	r.HandleLSU(&lsu.Msg{From: 1, Ack: true})
	if !r.Active() || len(r.Successors(3)) != 0 {
		t.Fatalf("one ACK of two: active=%v S_3=%v, want active, []", r.Active(), r.Successors(3))
	}
	// The last ACK carries no entries: T_k, l_ik, T and D all stay put.
	r.HandleLSU(&lsu.Msg{From: 2, Ack: true})
	if r.Active() || r.FD(3) != 6 || !slices.Equal(r.Successors(3), []graph.NodeID{2}) {
		t.Fatalf("after the last ACK: active=%v FD_3=%v S_3=%v, want passive, 6, [2]", r.Active(), r.FD(3), r.Successors(3))
	}
}
