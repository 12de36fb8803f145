package fluid_test

import (
	"fmt"
	"math"
	"testing"

	"minroute/internal/alloc"
	"minroute/internal/dijkstra"
	"minroute/internal/fluid"
	"minroute/internal/gallager"
	"minroute/internal/graph"
	"minroute/internal/topo"
)

// TestLittlesLaw: D_T, summed link by link, equals Σ r_ij·W_ij, the
// offered packet rates weighted by their expected end-to-end delays — on
// both paper networks, under OPT's φ and under single shortest paths, at
// the paper's load and at twice it (where shortest paths drive links past
// linkcost.MaxUtilization).
func TestLittlesLaw(t *testing.T) {
	const pktBits = 8000.0
	for _, name := range []string{"net1", "cairn"} {
		for _, scale := range []float64{1, 2} {
			net := topo.NET1()
			if name == "cairn" {
				net = topo.CAIRN()
			}
			flows := topo.ScaleFlows(net.Flows, scale)
			cfg := fluid.Config{Graph: net.Graph, Flows: flows, MeanPacketBits: pktBits}
			opt, err := gallager.Solve(net.Graph, flows, gallager.Options{MeanPacketBits: pktBits})
			if err != nil {
				t.Fatal(err)
			}
			for _, rt := range []struct {
				name string
				r    fluid.Routing
			}{{"OPT", opt}, {"SP", shortestPaths(net.Graph)}} {
				t.Run(fmt.Sprintf("%s/scale%g/%s", name, scale, rt.name), func(t *testing.T) {
					res, err := fluid.Solve(cfg, rt.r)
					if err != nil {
						t.Fatal(err)
					}
					d, err := fluid.Delays(cfg, rt.r, res)
					if err != nil {
						t.Fatal(err)
					}
					little := 0.0
					for x, f := range flows {
						little += f.Rate / pktBits * d.FlowDelay[x]
					}
					if rel := math.Abs(little-d.TotalDelay) / d.TotalDelay; rel > 1e-9 {
						t.Errorf("Σ r·W = %v, D_T = %v (rel %v, max utilization %.3f)",
							little, d.TotalDelay, rel, d.MaxUtilization)
					}
				})
			}
		}
	}
}

// shortestPaths routes every packet on one minimum-propagation path.
func shortestPaths(g *graph.Graph) fluid.Routing {
	view := dijkstra.GraphView{G: g, Cost: topo.PropCost}
	trees := make([]*dijkstra.Result, g.NumNodes())
	return fluid.RoutingFunc(func(i, j graph.NodeID) alloc.Split {
		if trees[i] == nil {
			trees[i] = dijkstra.Run(view, i)
		}
		nh := trees[i].NextHop(j)
		if nh == graph.None {
			return nil
		}
		return alloc.Single(nh)
	})
}
