package pda

import (
	"testing"

	"minroute/internal/graph"
	"minroute/internal/lsu"
	"minroute/internal/topo"
)

// TestTablesAllocBudget pins the per-LSU table work at zero steady-state
// allocations, on the converged tables of the hub of a 48-router scale-free
// network: the dense rows, the Dijkstra scratch and the double-buffered T
// exist so that handling an LSU reuses storage, and the tree walk's scratch
// and the Moved set wait for first use and are kept. The one thing RunMTU must
// allocate is the diff it returns when T changed (the LSUs that flood it
// keep it); the guarded event changes a link that is not on the router's
// tree, so here even that is absent. With map-backed tables the same event
// cost 1,505 allocations on a 160-router table (pda.run_mtu_allocs_n160).
// Like the telemetry and codec guards this needs a build without -race.
func TestTablesAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under the race detector")
	}
	g := topo.ScaleFree(7, 48, 2, 1e7, 2e-3)
	net, routers := buildNet(g, 1, topo.PropCost)
	net.Run(10_000_000)
	hub := graph.NodeID(0)
	for _, id := range g.Nodes() {
		if g.Degree(id) > g.Degree(hub) {
			hub = id
		}
	}
	tb := routers[hub].Tables()

	// A link k reports that T does not use, because another neighbor is
	// closer to its head: flipping its cost changes T_k and nothing else.
	var k graph.NodeID
	var e lsu.Entry
	for _, k = range tb.Neighbors() {
		for _, c := range tb.NeighborTopo(k).Entries() {
			if _, used := tb.Main().Cost(c.Head, c.Tail); !used && c.Head != k && e.Op == 0 {
				e = lsu.Entry{Op: lsu.OpChange, Head: c.Head, Tail: c.Tail, Cost: c.Cost}
			}
		}
		if e.Op != 0 {
			break
		}
	}
	if e.Op == 0 {
		t.Fatal("no neighbor reports a link off the router's tree")
	}
	one := []lsu.Entry{e}
	flip := func() {
		one[0].Cost = 3*e.Cost - one[0].Cost // e.Cost <-> 2*e.Cost
		tb.ApplyLSU(k, one)
		if diff := tb.RunMTU(); diff != nil {
			t.Fatalf("off-tree change moved T: %v", diff)
		}
		if len(tb.Moved().List()) == 0 {
			t.Fatal("a changed cost in T_k moved no D_jk")
		}
		tb.Moved().Reset()
	}
	flip() // both buffers of T have held the rows once
	flip()

	for _, c := range []struct {
		name string
		op   func()
	}{
		{"VisitOut", func() { tb.Main().VisitOut(hub, func(graph.NodeID, float64) {}) }},
		{"entry-less ApplyLSU", func() { tb.ApplyLSU(k, nil) }},
		{"clean RunMTU", func() { tb.RunMTU() }},
		{"one-entry ApplyLSU + RunMTU, empty diff", flip},
	} {
		if got := testing.AllocsPerRun(100, c.op); got != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", c.name, got)
		}
	}
}
