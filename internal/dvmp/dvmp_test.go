package dvmp

import (
	"math"
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

func checkConverged(t *testing.T, g *graph.Graph, routers map[graph.NodeID]*Router, costOf func(l *graph.Link) float64) {
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
			var wantS []graph.NodeID
			for _, k := range g.Neighbors(i) {
				if numeric.Closer(truth[k].Dist[j], truth[i].Dist[j]) {
					wantS = append(wantS, k)
				}
			}
			gotS := r.Successors(jid)
			if len(gotS) != len(wantS) {
				t.Fatalf("router %d dest %d: S = %v, want %v", i, j, gotS, wantS)
			}
			for x := range wantS {
				if gotS[x] != wantS[x] {
					t.Fatalf("router %d dest %d: S = %v, want %v", i, j, gotS, wantS)
				}
			}
		}
	}
}

func TestDVMPConvergesRing(t *testing.T) {
	g := topo.Ring(6, 1e6, 1e-3)
	net, routers := buildNet(t, g, 1, topo.PropCost)
	net.Run(200000)
	checkConverged(t, g, routers, topo.PropCost)
}

func TestDVMPConvergesGrid(t *testing.T) {
	g := topo.Grid(3, 3, 1e6, 1e-3)
	net, routers := buildNet(t, g, 2, topo.PropCost)
	net.Run(500000)
	checkConverged(t, g, routers, topo.PropCost)
}

func TestDVMPConvergesNET1(t *testing.T) {
	n := topo.NET1()
	net, routers := buildNet(t, n.Graph, 3, topo.PropCost)
	net.Run(1000000)
	checkConverged(t, n.Graph, routers, topo.PropCost)
}

func TestDVMPConvergesCAIRN(t *testing.T) {
	n := topo.CAIRN()
	net, routers := buildNet(t, n.Graph, 4, topo.PropCost)
	net.Run(3000000)
	checkConverged(t, n.Graph, routers, topo.PropCost)
}

func TestDVMPUnequalCostMultipath(t *testing.T) {
	n := topo.NET1()
	uniform := func(l *graph.Link) float64 { return 1 }
	net, routers := buildNet(t, n.Graph, 5, uniform)
	net.Run(1000000)
	succ := routers[0].Successors(8)
	if len(succ) != 2 || succ[0] != 1 || succ[1] != 3 {
		t.Fatalf("S_8 at node 0 = %v, want [1 3]", succ)
	}
}

func TestDVMPReconvergesAfterCostChange(t *testing.T) {
	g := topo.Ring(6, 1e6, 1e-3)
	costs := map[[2]graph.NodeID]float64{}
	costOf := func(l *graph.Link) float64 {
		if c, ok := costs[[2]graph.NodeID{l.From, l.To}]; ok {
			return c
		}
		return topo.PropCost(l)
	}
	net, routers := buildNet(t, g, 6, costOf)
	net.Run(200000)
	costs[[2]graph.NodeID{0, 1}] = 0.5
	net.ChangeCost(0, 1, 0.5)
	net.Run(200000)
	checkConverged(t, g, routers, costOf)
}

func TestDVMPLoopFreeUnderFailures(t *testing.T) {
	g := topo.Grid(3, 3, 1e6, 1e-3)
	net, routers := buildNet(t, g, 7, topo.PropCost)
	net.Run(500000)
	net.FailLink(0, 1)
	for i := 0; i < 40 && net.Step(); i++ {
	}
	net.FailLink(4, 5)
	net.Run(500000)
	checkConverged(t, g, routers, topo.PropCost)
}

func TestDVMPPartitionNoCountToInfinity(t *testing.T) {
	// The classic DV killer: partition the ring and verify distances to the
	// unreachable side become infinite (via the hop-count horizon) with the
	// protocol quiescing.
	g := topo.Ring(4, 1e6, 1e-3)
	net, routers := buildNet(t, g, 8, topo.PropCost)
	net.Run(200000)
	net.FailLink(1, 2)
	net.FailLink(3, 0)
	net.Run(200000) // must quiesce: the budget panics otherwise
	if !math.IsInf(routers[0].Dist(2), 1) {
		t.Fatalf("node 0 still reaches 2 after partition: %v", routers[0].Dist(2))
	}
	if len(routers[0].Successors(2)) != 0 {
		t.Fatal("successors survive partition")
	}
	// Heal and reconverge.
	net.RestoreLink(1, 2, 1e6, 1e-3, topo.PropCost(&graph.Link{PropDelay: 1e-3}))
	net.Run(200000)
	checkConverged(t, g, routers, topo.PropCost)
}

func TestDVMPBestSuccessorAchievesDistance(t *testing.T) {
	n := topo.NET1()
	net, routers := buildNet(t, n.Graph, 9, topo.PropCost)
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
				t.Fatalf("router %d: no successor for %d", i, j)
			}
			if got, want := r.SuccessorDistance(jid, best), r.Dist(jid); math.Abs(got-want) > 1e-9 {
				t.Fatalf("router %d dest %d: best distance %v != D %v", i, j, got, want)
			}
		}
	}
}

func TestDVMPPropertyRandomGraphs(t *testing.T) {
	check := func(seed uint64, n8, extra8 uint8) bool {
		n := int(n8%7) + 3
		extra := int(extra8 % 8)
		g := topo.Random(seed, n, extra, 1e6, 1e7, 1e-3)
		net := protonet.New(g, seed^0xd15c)
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
		net.Run(3000000)
		if !ok {
			return false
		}
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
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestDVMPNilSenderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil sender accepted")
		}
	}()
	NewRouter(0, 3, nil)
}

func TestDVMPIgnoresStaleMessages(t *testing.T) {
	g := topo.Ring(3, 1e6, 1e-3)
	net, routers := buildNet(t, g, 10, topo.PropCost)
	net.Run(100000)
	r := routers[0]
	r.LinkDown(1)
	before := r.Dist(1)
	r.HandleLSU(&lsu.Msg{From: 1, Entries: []lsu.Entry{{Op: lsu.OpAdd, Head: 1, Tail: 0, Cost: 0.000001}}})
	if r.Dist(1) != before {
		t.Fatal("stale message from down neighbor processed")
	}
}
