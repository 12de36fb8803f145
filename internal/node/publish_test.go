package node_test

import (
	"math"
	"slices"
	"strings"
	"testing"

	"minroute/internal/dataplane"
	"minroute/internal/graph"
	"minroute/internal/leaktest"
	"minroute/internal/lsu"
	"minroute/internal/node"
	"minroute/internal/router"
	"minroute/internal/topo"
	"minroute/internal/transport"
)

// publishedSuccessors holds every forwarder of m to its node's agent — for
// each destination j, Table().Route(j) lists exactly S_j as its hops, with
// weights equal to φ_j within the 1/256 bucket quantum — and returns every
// S_j, by node and destination.
func publishedSuccessors(t *testing.T, m *node.Mesh) [][][]graph.NodeID {
	t.Helper()
	out := make([][][]graph.NodeID, len(m.Nodes))
	for i, n := range m.Nodes {
		n.WithAgent(func(a *router.Agent) {
			tbl := n.DataPlane().Table()
			for j := range m.Nodes {
				dst := graph.NodeID(j)
				succ := slices.Clone(a.Protocol().Successors(dst))
				out[i] = append(out[i], succ)
				hops, weights, _ := tbl.Route(dst)
				if !slices.Equal(hops, succ) {
					t.Errorf("node %d dst %d: published hops %v, S_j %v", i, j, hops, succ)
					continue
				}
				phi := a.Phi(dst)
				if !phi.Over(hops) {
					t.Errorf("node %d dst %d: published hops %v, φ_j %v", i, j, hops, phi)
					continue
				}
				for x, sh := range phi {
					if math.Abs(weights[x]-sh.Frac) > 1.0/dataplane.NumBuckets {
						t.Errorf("node %d dst %d via %d: published weight %v, φ %v", i, j, sh.Hop, weights[x], sh.Frac)
					}
				}
			}
		})
	}
	return out
}

// TestLivePublishesAgentPhi holds the live data plane to the agent: the
// forwarding tables of a converged in-memory NET1 mesh carry exactly the
// agent's successor sets and φ, and still do after cost changes that move
// some S_j; and an LSU that moves no S_j leaves a forwarder's table as it
// was — the same *Table, not a recompiled copy.
func TestLivePublishesAgentPhi(t *testing.T) {
	leaktest.Check(t)
	g := topo.NET1().Graph
	m, err := node.NewMesh(g, node.MeshConfig{
		Fabric: node.FabricInmem, Clock: node.NewWallClock(), CostOf: topo.PropCost,
		Data: true, HeartbeatEvery: 0.2, DeadAfter: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	awaitMesh(t, m)
	before := publishedSuccessors(t, m)
	for _, c := range changeSet(g) {
		if err := m.Nodes[c.a].ChangeCost(c.b, c.cost); err != nil {
			t.Fatal(err)
		}
	}
	awaitMesh(t, m)
	after := publishedSuccessors(t, m)
	moved := 0
	for i := range after {
		for j := range after[i] {
			if !slices.Equal(before[i][j], after[i][j]) {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Fatal("the cost changes moved no S_j: the second check compared nothing new")
	}
	t.Logf("the cost changes moved %d successor sets", moved)

	// One router and two neighbors played by hand, each with a link of cost
	// 1 and reporting a link to 3 of cost 5: S_3 = {1, 2}.
	clk := transport.NewVirtualClock()
	fwd := dataplane.New(dataplane.Config{Self: 0, Nodes: 4, Conn: transport.NewMemNet().Bind(), Clock: clk})
	a, err := node.New(node.Config{ID: 0, Nodes: 4, Clock: clk, Data: fwd})
	if err != nil {
		fwd.Close()
		t.Fatal(err)
	}
	defer a.Close()
	c1, c2 := playPeer(t, a, 1, 1), playPeer(t, a, 2, 1)
	report := func(c transport.Conn, from graph.NodeID, cost float64, want string) *dataplane.Table {
		t.Helper()
		sendLSU(t, c, &lsu.Msg{From: from, Entries: []lsu.Entry{{Op: lsu.OpAdd, Head: from, Tail: 3, Cost: cost}}})
		waitUntil(t, want, func() bool { return a.Passive() && strings.Contains(a.Summary(), want) })
		return fwd.Table()
	}
	report(c1, 1, 5, " dst 3 D=6 S=[1]\n")
	tbl := report(c2, 2, 5, " dst 3 D=6 S=[1 2]\n")
	// Through 1 the route shortens to 5.5, and S_3 stays {1, 2}.
	if got := report(c1, 1, 4.5, " dst 3 D=5.5 S=[1 2]\n"); got != tbl {
		t.Fatal("an LSU that moved no S_j republished the forwarding table")
	}
	// Through 1 it shortens to 5, and 2 (at 5) leaves S_3.
	got := report(c1, 1, 4, " dst 3 D=5 S=[1]\n")
	if hops, _, _ := got.Route(3); got == tbl || !slices.Equal(hops, []graph.NodeID{1}) {
		t.Fatalf("after S_3 became {1} the table routes 3 over %v (republished: %v)", hops, got != tbl)
	}
}
