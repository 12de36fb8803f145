package mpda

import (
	"testing"

	"minroute/internal/graph"
	"minroute/internal/lsu"
	"minroute/internal/protonet"
	"minroute/internal/topo"
)

// TestHandleLSUAllocBudget extends pda's TestTablesAllocBudget through the
// rest of the per-LSU procedure: on the converged hub of a 48-router
// scale-free network, an LSU that changes a link off the router's tree —
// T_k and some D_jk move, T does not — runs NTU, MTU, the re-derivation of
// the moved S_j and the host's TakeMoved on storage that already exists.
// The one allocation is the ACK it must send back.
func TestHandleLSUAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under the race detector")
	}
	g := topo.ScaleFree(7, 48, 2, 1e7, 2e-3)
	net := protonet.New(g, 1)
	routers := make(map[graph.NodeID]*Router)
	quiet := false
	for _, id := range g.Nodes() {
		deliver := net.Sender(id)
		routers[id] = NewRouter(id, g.NumNodes(), func(to graph.NodeID, m *lsu.Msg) {
			if !quiet {
				deliver(to, m)
			}
		})
		net.Attach(id, routers[id])
	}
	net.BringUpAll(topo.PropCost)
	net.Run(10_000_000)
	quiet = true
	hub := graph.NodeID(0)
	for _, id := range g.Nodes() {
		if g.Degree(id) > g.Degree(hub) {
			hub = id
		}
	}
	r := routers[hub]

	// A link k reports that T does not use (see the pda guard).
	msg := &lsu.Msg{}
	for _, k := range r.Tables().Neighbors() {
		for _, c := range r.Tables().NeighborTopo(k).Entries() {
			if _, used := r.Tables().Main().Cost(c.Head, c.Tail); !used && c.Head != k && msg.Entries == nil {
				msg.From, msg.Entries = k, []lsu.Entry{{Op: lsu.OpChange, Head: c.Head, Tail: c.Tail, Cost: c.Cost}}
			}
		}
	}
	if msg.Entries == nil {
		t.Fatal("no neighbor reports a link off the router's tree")
	}
	base := msg.Entries[0].Cost
	flip := func() {
		msg.Entries[0].Cost = 3*base - msg.Entries[0].Cost // base <-> 2*base
		r.HandleLSU(msg)
		if r.Active() {
			t.Fatal("off-tree change moved T")
		}
		if len(r.TakeMoved()) == 0 {
			t.Fatal("a changed cost in T_k re-derived no S_j")
		}
	}
	flip() // both buffers of T have held the rows once
	flip()
	if got := testing.AllocsPerRun(100, flip); got > 1 {
		t.Errorf("one-entry LSU: %.1f allocs/op, want 1 (the ACK)", got)
	}
}
