package core

import (
	"math"
	"strings"
	"testing"

	"minroute/internal/alloc"
	"minroute/internal/fluid"
	"minroute/internal/gallager"
	"minroute/internal/graph"
	"minroute/internal/router"
	"minroute/internal/topo"
)

// TestFluidMatchesPacketSimulation cross-validates the repository's two
// delay models: for a fixed routing (Gallager's OPT φ), the analytic
// fluid/M/M/1 prediction of each flow's expected delay must match what the
// packet simulator measures. They share no code path — fluid solves
// conservation equations, the DES moves individual packets — so agreement
// here validates both.
func TestFluidMatchesPacketSimulation(t *testing.T) {
	net := topo.NET1()
	sol, err := gallager.Solve(net.Graph, net.Flows, gallager.Options{MeanPacketBits: 8000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fluid.Config{Graph: net.Graph, Flows: net.Flows, MeanPacketBits: 8000}
	fres, err := fluid.Solve(cfg, sol)
	if err != nil {
		t.Fatal(err)
	}
	predicted, err := fluid.Delays(cfg, sol, fres)
	if err != nil {
		t.Fatal(err)
	}

	opt := DefaultOptions()
	opt.Router.Mode = router.ModeStatic
	opt.Router.Tl, opt.Router.Ts = 0, 0
	opt.Seed = 17
	opt.Warmup = 20
	opt.Duration = 60
	sim := Build(net, opt)
	sim.InstallStatic(sol.Phi)
	measured := sim.Run()

	for x, f := range net.Flows {
		pred := predicted.FlowDelay[x] * 1e3
		got := measured.MeanDelayMs[x]
		rel := math.Abs(got-pred) / pred
		// The DES adds transmission-time correlation effects the pure M/M/1
		// chain ignores (Kleinrock independence is an approximation), so a
		// generous but meaningful tolerance applies.
		if rel > 0.25 {
			t.Errorf("flow %s: fluid predicts %.3f ms, DES measures %.3f ms (rel %.2f)",
				f.Name, pred, got, rel)
		}
	}
}

// TestFluidMatchesPacketSimulationSingleLink pins the agreement tightly on
// a single bottleneck where the M/M/1 model is exact.
func TestFluidMatchesPacketSimulationSingleLink(t *testing.T) {
	net, err := topo.Parse(netReader())
	if err != nil {
		t.Fatal(err)
	}
	phi := gallagerLike(net)
	cfg := fluid.Config{Graph: net.Graph, Flows: net.Flows, MeanPacketBits: 8000}
	fres, err := fluid.Solve(cfg, phi)
	if err != nil {
		t.Fatal(err)
	}
	predicted, err := fluid.Delays(cfg, phi, fres)
	if err != nil {
		t.Fatal(err)
	}

	opt := DefaultOptions()
	opt.Router.Mode = router.ModeStatic
	opt.Router.Tl, opt.Router.Ts = 0, 0
	opt.Seed = 23
	opt.Warmup = 20
	opt.Duration = 120
	sim := Build(net, opt)
	sim.InstallStatic(phiMatrix(net, phi))
	measured := sim.Run()

	pred := predicted.FlowDelay[0] * 1e3
	got := measured.MeanDelayMs[0]
	if rel := math.Abs(got-pred) / pred; rel > 0.08 {
		t.Fatalf("single link: fluid %.3f ms vs DES %.3f ms (rel %.2f)", pred, got, rel)
	}
}

// netReader yields a two-node single-bottleneck scenario at 70% load.
func netReader() *strings.Reader {
	return strings.NewReader(`
link a b 10Mbps 1ms
flow a b 7Mbps
`)
}

// gallagerLike returns the trivial direct routing for the two-node net.
func gallagerLike(net *topo.Network) fluid.Routing {
	return fluid.RoutingFunc(func(i, j graph.NodeID) alloc.Split {
		if i == net.Flows[0].Src && j == net.Flows[0].Dst {
			return alloc.Single(net.Flows[0].Dst)
		}
		return nil
	})
}

// phiMatrix converts a fluid.Routing into the static φ matrix core expects.
func phiMatrix(net *topo.Network, rt fluid.Routing) [][]alloc.Split {
	n := net.Graph.NumNodes()
	out := make([][]alloc.Split, n)
	for j := 0; j < n; j++ {
		out[j] = make([]alloc.Split, n)
		for i := 0; i < n; i++ {
			out[j][i] = rt.Fractions(graph.NodeID(i), graph.NodeID(j))
		}
	}
	return out
}
