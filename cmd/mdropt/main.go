// Command mdropt runs Gallager's minimum-delay routing solver (OPT) on one
// of the paper's topologies and prints the converged solution: total delay
// D_T, per-flow expected delays, link utilizations, and the multipath
// splits at every router.
//
// Usage:
//
//	mdropt -topo cairn
//	mdropt -topo net1 -splits
//	mdropt -topo net1 -scale 1.2     # scale all offered loads
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"minroute/internal/fluid"
	"minroute/internal/gallager"
	"minroute/internal/graph"
	"minroute/internal/topo"
)

func main() {
	var (
		topoName = flag.String("topo", "cairn", "topology: cairn or net1")
		splits   = flag.Bool("splits", false, "print multipath splits at every router")
		scale    = flag.Float64("scale", 1.0, "scale factor applied to all flow rates")
		maxIters = flag.Int("iters", 2000, "maximum solver iterations")
	)
	flag.Parse()

	var net *topo.Network
	switch *topoName {
	case "cairn":
		net = topo.CAIRN()
	case "net1":
		net = topo.NET1()
	default:
		fmt.Fprintf(os.Stderr, "mdropt: unknown topology %q\n", *topoName)
		os.Exit(2)
	}
	net.Flows = topo.ScaleFlows(net.Flows, *scale)

	sol, err := gallager.Solve(net.Graph, net.Flows, gallager.Options{
		MeanPacketBits: 8000,
		MaxIters:       *maxIters,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdropt: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("OPT on %s: D_T=%.6f, %d iterations, converged=%v\n",
		*topoName, sol.TotalDelay, sol.Iterations, sol.Converged)

	cfg := fluid.Config{Graph: net.Graph, Flows: net.Flows, MeanPacketBits: 8000}
	res, err := fluid.Solve(cfg, sol)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdropt: evaluate: %v\n", err)
		os.Exit(1)
	}
	d, err := fluid.Delays(cfg, sol, res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdropt: delays: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("max link utilization: %.3f\n\n", d.MaxUtilization)

	fmt.Println("per-flow expected delays:")
	for x, f := range net.Flows {
		fmt.Printf("  %-18s %8.3f ms  (%.1f Mb/s)\n", f.Name, d.FlowDelay[x]*1e3, f.Rate/1e6)
	}

	fmt.Println("\nbusiest links:")
	type lu struct {
		from, to graph.NodeID
		util     float64
	}
	var lus []lu
	for _, l := range net.Graph.Links() {
		u := res.Flow(l.From, l.To) / l.Capacity
		if u > 0 {
			lus = append(lus, lu{l.From, l.To, u})
		}
	}
	sort.Slice(lus, func(i, j int) bool { return lus[i].util > lus[j].util })
	for i, x := range lus {
		if i >= 10 {
			break
		}
		fmt.Printf("  %-10s -> %-10s %.3f\n", net.Graph.Name(x.from), net.Graph.Name(x.to), x.util)
	}

	if *splits {
		fmt.Println("\nmultipath splits (router -> destination: successor=fraction):")
		for j := range sol.Phi {
			for i := range sol.Phi[j] {
				phi := sol.Phi[j][i]
				if len(phi) < 2 {
					continue
				}
				line := fmt.Sprintf("  %-10s -> %-10s:", net.Graph.Name(graph.NodeID(i)), net.Graph.Name(graph.NodeID(j)))
				for _, sh := range phi {
					if sh.Frac > 0.001 {
						line += fmt.Sprintf(" %s=%.2f", net.Graph.Name(sh.Hop), sh.Frac)
					}
				}
				fmt.Println(line)
			}
		}
	}
}
