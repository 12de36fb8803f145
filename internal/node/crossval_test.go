package node_test

import (
	"minroute/internal/leaktest"
	"testing"

	"minroute/internal/graph"
	"minroute/internal/node"
	"minroute/internal/telemetry"
	"minroute/internal/topo"
	"minroute/internal/transport"
)

// crossValidate is the live-vs-simulator experiment at the heart of this
// package: run the topology as real peers over UDP sockets with seeded
// loss, duplication, and reordering injected beneath the ARQ, converge,
// apply a cost-change sequence, converge again — and require the exact
// PASSIVE-state distance tables and successor sets protonet computes over
// its emulated reliable queues. MPDA's converged state is
// schedule-independent (at quiescence FD_j = D_j everywhere), so the
// wildly different delivery schedules must not show in the final hash.
func crossValidate(t *testing.T, g *graph.Graph, changes []costChange) {
	tr := node.NewTrace(telemetry.NewTracer(g.NumNodes(), 0))
	m, err := node.NewMesh(g, node.MeshConfig{
		Fabric: node.FabricUDP,
		Clock:  node.NewWallClock(),
		CostOf: topo.PropCost,
		Fault:  transport.Fault{Seed: 7, LossProb: 0.2, DupProb: 0.2, ReorderProb: 0.2},
		ARQ:    transport.ARQConfig{RTO: 0.01, MaxRTO: 0.2},
		// The dead timer must ride out fault-induced silence: a link that
		// flaps during convergence would change the topology under test.
		HeartbeatEvery: 0.2,
		DeadAfter:      60,
		Trace:          tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	awaitMesh(t, m)
	compareStates(t, m, protoReference(t, g, nil))

	for _, c := range changes {
		if err := m.Nodes[c.a].ChangeCost(c.b, c.cost); err != nil {
			t.Fatal(err)
		}
	}
	awaitMesh(t, m)
	compareStates(t, m, protoReference(t, g, changes))

	var ups int
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case telemetry.KindPeerUp:
			ups++
		case telemetry.KindPeerDown:
			t.Errorf("router %d lost peer %d (%s) mid-run: topology changed under test", ev.Router, ev.Peer, ev.Label)
		}
	}
	if want := 2 * len(duplexPairs(g)); ups != want {
		t.Errorf("peer_up events: got %d, want %d", ups, want)
	}
}

// duplexPairs lists each duplex link once (From < To).
func duplexPairs(g *graph.Graph) [][2]graph.NodeID {
	var out [][2]graph.NodeID
	for _, l := range g.Links() {
		if l.From < l.To {
			out = append(out, [2]graph.NodeID{l.From, l.To})
		}
	}
	return out
}

// changeSet doubles-to-triples the cost of a few spread-out links, each
// announced by one endpoint only — mirroring protonet.ChangeCost
// semantics, where cost is a property of the announcing router's view.
func changeSet(g *graph.Graph) []costChange {
	pairs := duplexPairs(g)
	var out []costChange
	for i := 0; i < len(pairs); i += 1 + len(pairs)/4 {
		a, b := pairs[i][0], pairs[i][1]
		l, _ := g.Link(a, b)
		out = append(out, costChange{a: a, b: b, cost: 3 * topo.PropCost(l)})
	}
	return out
}

// TestCrossValidationNET1: the 10-router two-cluster topology.
func TestCrossValidationNET1(t *testing.T) {
	leaktest.Check(t)
	g := topo.NET1().Graph
	crossValidate(t, g, changeSet(g))
}

// TestCrossValidationCAIRN: the paper's CAIRN testbed topology — 26
// routers, 39 duplex links, 78 UDP sockets, every datagram running the 20% fault
// gauntlet.
func TestCrossValidationCAIRN(t *testing.T) {
	leaktest.Check(t)
	if testing.Short() {
		t.Skip("CAIRN live mesh is not a -short test")
	}
	g := topo.CAIRN().Graph
	crossValidate(t, g, changeSet(g))
}
