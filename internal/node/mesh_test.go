package node_test

import (
	"minroute/internal/leaktest"
	"runtime"
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
// emulated reliable-FIFO queues to quiescence and returns the routers, in
// ID order. changes, applied after initial convergence, mirrors
// Mesh.ChangeCost calls.
func protoReference(t *testing.T, g *graph.Graph, changes []costChange) []*mpda.Router {
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
	return routers
}

type costChange struct {
	a, b graph.NodeID
	cost float64
}

// awaitMesh waits for live convergence with a real-time poll loop.
func awaitMesh(t *testing.T, m *node.Mesh) {
	t.Helper()
	if err := m.AwaitConverged(20000, func() { time.Sleep(2 * time.Millisecond) }); err != nil {
		t.Fatal(err)
	}
}

// compareStates asserts the live mesh landed on exactly the reference
// state — phase, D_j, FD_j and S_j with exact float bits, and the owed
// ACKs — router by router through mpda.Router.AppendState's digest, and
// then as the one mesh hash.
func compareStates(t *testing.T, m *node.Mesh, ref []*mpda.Router) {
	t.Helper()
	var all []byte
	for i, r := range ref {
		want := r.AppendState(nil)
		all = append(all, want...)
		if got := m.Nodes[i].Sample().Digest; got != mpda.Digest(want) {
			t.Errorf("router %d: live state diverged from the simulator reference (the text shows D_j and S_j; the digest also covers FD_j, the phase and the owed ACKs)\nlive:\n%s\nreference:\n%s",
				i, m.Nodes[i].Summary(), node.RouterSummary(r))
		}
	}
	if got, want := m.Hash(), mpda.Digest(all); got != want {
		t.Fatalf("mesh hash %s, reference %s", got, want)
	}
}

// TestMeshFabricsAgreeNET1 converges NET1 on both fabrics and checks each
// against the protonet reference: two different transports and two
// different delivery schedules, one final state.
func TestMeshFabricsAgreeNET1(t *testing.T) {
	leaktest.Check(t)
	g := topo.NET1().Graph
	ref := protoReference(t, g, nil)
	for _, fabric := range []node.Fabric{node.FabricInmem, node.FabricUDP} {
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

// TestMeshGoroutineBudget pins what a live session costs: once a mesh has
// converged, at most one goroutine per directed link (its lane's reader)
// plus one per node (a firing clock timer) above the baseline, on the
// in-memory and UDP fabrics alike; and Close leaves none behind.
func TestMeshGoroutineBudget(t *testing.T) {
	leaktest.Check(t)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"net1", topo.NET1().Graph},
		{"sf80", topo.ScaleFree(1, 80, 2, 1e7, 2e-3)},
	} {
		for _, fabric := range []node.Fabric{node.FabricInmem, node.FabricUDP} {
			t.Run(tc.name+"/"+string(fabric), func(t *testing.T) {
				base := runtime.NumGoroutine()
				m, err := node.NewMesh(tc.g, node.MeshConfig{
					Fabric:         fabric,
					Clock:          node.NewWallClock(),
					CostOf:         topo.PropCost,
					ARQ:            transport.ARQConfig{RTO: 0.01, MaxRTO: 0.2},
					HeartbeatEvery: 0.2,
					DeadAfter:      60,
				})
				if err != nil {
					t.Fatal(err)
				}
				awaitMesh(t, m)
				budget := len(tc.g.Links()) + tc.g.NumNodes()
				if got := runtime.NumGoroutine() - base; got > budget {
					t.Errorf("%d goroutines above baseline, budget %d (%d directed links + %d nodes)",
						got, budget, len(tc.g.Links()), tc.g.NumNodes())
				}
				m.Close()
				waitUntil(t, "goroutines back to baseline", func() bool { return runtime.NumGoroutine() <= base })
			})
		}
	}
}
