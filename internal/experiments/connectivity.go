package experiments

import (
	"fmt"

	"minroute/internal/graph"
	"minroute/internal/report"
	"minroute/internal/topo"
)

// ConnectivitySweep measures how the MP advantage grows with topology
// richness — the paper: "MP routing performs much better under
// high-connectivity and high-load environments. When connectivity is low
// or network load is light, MP routing cannot offer any advantage over
// SP." Rows are random 12-node topologies whose extra-link fraction grows
// from 0 (barely more than a tree) upward; the same 8 flows are offered on
// each.
func ConnectivitySweep(set Settings) (*report.Figure, error) {
	fig := &report.Figure{
		ID:      "connsweep",
		Title:   "MP vs SP vs connectivity (random 12-node graphs, mean over flows, ms)",
		Columns: append(labels(mpVsSP), "avg-degree"),
	}
	const n = 12
	for _, frac := range []float64{0, 0.5, 1.0, 2.0} {
		build := func() *topo.Network {
			g := topo.Connectivity(42, n, frac, 10e6, 0.5e-3)
			net := &topo.Network{Graph: g}
			for i := 0; i < 8; i++ {
				src := graph.NodeID((i * 5) % n)
				dst := graph.NodeID((i*7 + 3) % n)
				if src == dst {
					dst = (dst + 1) % n
				}
				net.Flows = append(net.Flows, topo.Flow{
					Name: fmt.Sprintf("f%d", i), Src: src, Dst: dst, Rate: 2.0e6,
				})
			}
			return net
		}
		g := build().Graph
		degree := float64(g.NumLinks()) / float64(g.NumNodes())
		if err := sweepRow(fig, fmt.Sprintf("extra x%.1f", frac), fmt.Sprintf("connsweep-%03.0f", frac*100), build, set, degree); err != nil {
			return nil, err
		}
	}
	fig.Notes = append(fig.Notes,
		"paper: MP's advantage requires alternate paths; with tree-like connectivity MP ~= SP")
	return fig, nil
}

func init() {
	All["connsweep"] = ConnectivitySweep
	IDs = append(IDs, "connsweep")
}
