package pda

import (
	"testing"

	"minroute/internal/graph"
	"minroute/internal/lsu"
	"minroute/internal/topo"
)

// TestTablesAllocBudget pins the per-LSU table work at zero steady-state
// allocations, on the converged tables of the hub of a 48-router scale-free
// network: the dense rows, the kept merge and tree and the repair's scratch
// exist so that handling an LSU reuses storage, and the relabel's and the
// tree walk's scratch and the destination sets wait for first use and are
// kept; the one-entry change takes the relabel. The one thing
// RunMTU allocates is the diff it returns when T changed (the LSUs that
// flood it keep it) — one slice for adds and deletes together. With
// map-backed tables a one-entry event cost 1,505 allocations on a 160-router
// table (pda.run_mtu_allocs_n160). Like the telemetry and codec guards this
// needs a build without -race.
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
		relabels := tb.relabels
		tb.ApplyLSU(k, one)
		if tb.relabels != relabels+1 {
			t.Fatal("a one-entry change to a neighbor's tree did not take the relabel")
		}
		if diff := tb.RunMTU(); diff != nil {
			t.Fatalf("off-tree change moved T: %v", diff)
		}
		if len(tb.Moved().List()) == 0 {
			t.Fatal("a changed cost in T_k moved no D_jk")
		}
		tb.Moved().Reset()
	}
	flip() // the scratch has grown to what the event needs
	flip()

	// A link of T, from the neighbor whose report of it T took: re-pricing
	// it moves T, and the diff is the one allocation.
	var from graph.NodeID
	var onTree lsu.Entry
	for _, c := range tb.Main().Entries() {
		if c.Head != hub {
			from, onTree = tb.PreferredNeighbor(c.Head), lsu.Entry{Op: lsu.OpChange, Head: c.Head, Tail: c.Tail, Cost: c.Cost}
		}
	}
	if onTree.Op == 0 {
		t.Fatal("the router's tree is one hop deep")
	}
	two := []lsu.Entry{onTree}
	reprice := func() {
		two[0].Cost = onTree.Cost + onTree.Cost/1024 - (two[0].Cost - onTree.Cost) // c <-> c + c/1024
		tb.ApplyLSU(from, two)
		if diff := tb.RunMTU(); len(diff) == 0 {
			t.Fatal("re-pricing a tree link left T alone")
		}
		tb.Moved().Reset()
	}
	reprice()
	reprice()

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
	if got := testing.AllocsPerRun(100, reprice); got != 1 {
		t.Errorf("one-entry ApplyLSU + RunMTU, T changed: %.1f allocs/op, want 1 (the diff)", got)
	}
}
