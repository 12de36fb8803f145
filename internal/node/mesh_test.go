package node_test

import (
	"minroute/internal/leaktest"
	"testing"
	"time"

	"minroute/internal/graph"
	"minroute/internal/mpda"
	"minroute/internal/node"
	"minroute/internal/protonet"
	"minroute/internal/topo"
	"minroute/internal/transport"
)

// protoReference drives the same mpda.Router code over protonet's
// emulated reliable-FIFO queues to quiescence and returns the canonical
// per-router summaries. changes, applied after initial convergence,
// mirrors Mesh.ChangeCost calls.
func protoReference(t *testing.T, g *graph.Graph, changes []costChange) []string {
	t.Helper()
	net := protonet.New(g, 1)
	nn := g.NumNodes()
	routers := make([]*mpda.Router, nn)
	for i := 0; i < nn; i++ {
		id := graph.NodeID(i)
		routers[i] = mpda.NewRouter(id, nn, net.Sender(id))
		net.Attach(id, routers[i])
	}
	net.BringUpAll(topo.PropCost)
	net.Run(1 << 22)
	for _, c := range changes {
		net.ChangeCost(c.a, c.b, c.cost)
		net.Run(1 << 22)
	}
	out := make([]string, nn)
	for i, r := range routers {
		out[i] = node.RouterSummary(r)
	}
	return out
}

type costChange struct {
	a, b graph.NodeID
	cost float64
}

// awaitMesh waits for live convergence with a real-time poll loop.
func awaitMesh(t *testing.T, m *node.Mesh) {
	t.Helper()
	if err := m.AwaitConverged(3, 20000, func() { time.Sleep(2 * time.Millisecond) }); err != nil {
		t.Fatal(err)
	}
}

// compareStates asserts the live mesh landed on exactly the reference
// distance tables and successor sets, via the canonical state hash.
func compareStates(t *testing.T, m *node.Mesh, ref []string) {
	t.Helper()
	live := m.Summary()
	want := ""
	for _, s := range ref {
		want += s
	}
	if node.HashState(live) != node.HashState(want) {
		t.Fatalf("live state diverged from simulator reference\nlive:\n%s\nreference:\n%s", live, want)
	}
}

// TestMeshFabricsAgreeNET1 converges NET1 on every fabric and checks each
// against the protonet reference: three different transports and three
// different delivery schedules, one final state.
func TestMeshFabricsAgreeNET1(t *testing.T) {
	leaktest.Check(t)
	g := topo.NET1().Graph
	ref := protoReference(t, g, nil)
	for _, fabric := range []node.Fabric{node.FabricInmem, node.FabricTCP, node.FabricUDP} {
		t.Run(string(fabric), func(t *testing.T) {
			m, err := node.NewMesh(g, node.MeshConfig{
				Fabric: fabric,
				Clock:  node.NewWallClock(),
				CostOf: topo.PropCost,
				ARQ:    transport.ARQConfig{RTO: 0.01, MaxRTO: 0.2},
				// Generous dead timer: convergence here is driven by
				// traffic, and a -race scheduler stall must not fail links.
				HeartbeatEvery: 0.2,
				DeadAfter:      60,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			awaitMesh(t, m)
			compareStates(t, m, ref)
		})
	}
}
