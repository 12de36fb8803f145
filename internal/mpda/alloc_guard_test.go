package mpda

import (
	"slices"
	"testing"

	"minroute/internal/graph"
	"minroute/internal/lsu"
	"minroute/internal/protonet"
	"minroute/internal/topo"
)

// TestHandleLSUAllocBudget extends pda's TestTablesAllocBudget through the
// rest of the per-LSU procedure: on the converged hub of a 48-router
// scale-free network, an LSU that changes a link off the router's tree —
// T_k and some D_jk move, T does not — runs NTU, MTU, the re-test of k's
// membership of the moved S_j and the host's TakeMoved on storage that
// already exists. TakeMoved names a destination only when the flip moved
// k into or out of its S_j, and every S_j it does not name is the set it
// was. The one allocation is the ACK it must send back.
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
	base, k := msg.Entries[0].Cost, msg.From
	was := make([][]graph.NodeID, g.NumNodes()) // S_j before the flip
	flips, named := 0, 0
	r.TakeMoved() // what the cold start changed
	flip := func() {
		for j := range was {
			was[j] = append(was[j][:0], r.Successors(graph.NodeID(j))...)
		}
		msg.Entries[0].Cost = 3*base - msg.Entries[0].Cost // base <-> 2*base
		r.HandleLSU(msg)
		if r.Active() {
			t.Fatal("off-tree change moved T")
		}
		moved := r.TakeMoved()
		for j := range was {
			now := r.Successors(graph.NodeID(j))
			changed := !slices.Equal(was[j], now)
			if changed != slices.Contains(moved, graph.NodeID(j)) {
				t.Fatalf("S_%d went %v → %v, TakeMoved named %v", j, was[j], now, moved)
			}
			if changed && slices.Contains(was[j], k) == slices.Contains(now, k) {
				t.Fatalf("S_%d went %v → %v: the flip moved more than %d's membership", j, was[j], now, k)
			}
		}
		flips, named = flips+1, named+len(moved)
	}
	flip() // both buffers of T have held the rows once
	flip()
	if got := testing.AllocsPerRun(100, flip); got > 1 {
		t.Errorf("one-entry LSU: %.1f allocs/op, want 1 (the ACK)", got)
	}
	t.Logf("%d S_j changes named over %d flips", named, flips)
}
