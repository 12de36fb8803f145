package main

import (
	"fmt"
	"io"
	"math"
	"sort"

	"minroute/internal/fluid"
	"minroute/internal/gallager"
	"minroute/internal/graph"
	"minroute/internal/linkcost"
	"minroute/internal/topo"
)

// The networks -topo scalefree|grid generates: each new scale-free router
// attaches with genAttach links, every link carries genCapacity with at
// most genMaxProp of propagation delay, and flow rates are drawn from
// [genMinRate, genMaxRate].
const (
	genAttach              = 2
	genCapacity            = 10 * topo.Mb
	genMaxProp             = 2e-3
	genMinRate, genMaxRate = 0.5 * topo.Mb, 1.5 * topo.Mb
)

// paperNetwork returns one of the paper's Fig. 8 topologies by name, or nil.
func paperNetwork(name string) *topo.Network {
	switch name {
	case "cairn":
		return topo.CAIRN()
	case "net1":
		return topo.NET1()
	}
	return nil
}

// runOpt runs Gallager's minimum-delay routing solver (OPT) on -opt's
// topology, flows scaled by -scale, and prints the converged solution:
// total delay D_T, per-flow expected delays, the busiest links and, with
// -splits, the multipath splits at every router.
func runOpt(o *options, stdout, _ io.Writer) error {
	net := paperNetwork(o.opt)
	if net == nil {
		return usageError{fmt.Errorf("unknown topology %q (want cairn or net1)", o.opt)}
	}
	net.Flows = topo.ScaleFlows(net.Flows, o.scale)

	sol, err := gallager.Solve(net.Graph, net.Flows, gallager.Options{MeanPacketBits: linkcost.MeanPacketBits})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "OPT on %s: D_T=%.6f, %d iterations, converged=%v\n",
		o.opt, sol.TotalDelay, sol.Iterations, sol.Converged)

	cfg := fluid.Config{Graph: net.Graph, Flows: net.Flows, MeanPacketBits: linkcost.MeanPacketBits}
	res, err := fluid.Solve(cfg, sol)
	if err != nil {
		return fmt.Errorf("evaluate: %w", err)
	}
	d, err := fluid.Delays(cfg, sol, res)
	if err != nil {
		return fmt.Errorf("delays: %w", err)
	}
	fmt.Fprintf(stdout, "max link utilization: %.3f\n\n", d.MaxUtilization)

	fmt.Fprintln(stdout, "per-flow expected delays:")
	for x, f := range net.Flows {
		fmt.Fprintf(stdout, "  %-18s %8.3f ms  (%.1f Mb/s)\n", f.Name, d.FlowDelay[x]*1e3, f.Rate/1e6)
	}

	fmt.Fprintln(stdout, "\nbusiest links:")
	type lu struct {
		from, to graph.NodeID
		util     float64
	}
	var lus []lu
	prices := fluid.Price(cfg, res)
	for _, l := range net.Graph.Links() {
		if u := prices.Links[[2]graph.NodeID{l.From, l.To}].Utilization; u > 0 {
			lus = append(lus, lu{l.From, l.To, u})
		}
	}
	sort.Slice(lus, func(i, j int) bool { return lus[i].util > lus[j].util })
	for i, x := range lus {
		if i >= 10 {
			break
		}
		fmt.Fprintf(stdout, "  %-10s -> %-10s %.3f\n", net.Graph.Name(x.from), net.Graph.Name(x.to), x.util)
	}

	if !o.splits {
		return nil
	}
	fmt.Fprintln(stdout, "\nmultipath splits (router -> destination: successor=fraction):")
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
			fmt.Fprintln(stdout, line)
		}
	}
	return nil
}

// runTopo prints the stats of a paper topology (Fig. 8) — node and link
// counts, diameter, degrees, the configured flows and, with -links, the
// full link list — or generates a synthetic scale-free or grid network of
// -n routers and -flows seed-derived flows in the scenario format, into
// -out or stdout. A generated file feeds large runs
// (mdrsim -scenario big.topo).
func runTopo(o *options, stdout, stderr io.Writer) error {
	if o.topo == "scalefree" || o.topo == "grid" {
		net := generate(o.topo, o.seed, o.n, o.flows)
		format := func(w io.Writer) error { return topo.Format(w, net) }
		var err error
		if o.out == "" {
			err = format(stdout)
		} else {
			err = writeFile(o.out, format)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "%s: %d nodes, %d directed links, %d flows\n",
			o.topo, net.Graph.NumNodes(), net.Graph.NumLinks(), len(net.Flows))
		return nil
	}
	net := paperNetwork(o.topo)
	if net == nil {
		return usageError{fmt.Errorf("unknown topology %q (want cairn, net1, scalefree or grid)", o.topo)}
	}

	g := net.Graph
	fmt.Fprintf(stdout, "%s: %d nodes, %d directed links, diameter %d\n",
		o.topo, g.NumNodes(), g.NumLinks(), g.Diameter())

	minDeg, maxDeg := 1<<30, 0
	for _, id := range g.Nodes() {
		minDeg = min(minDeg, g.Degree(id))
		maxDeg = max(maxDeg, g.Degree(id))
	}
	fmt.Fprintf(stdout, "degrees: %d..%d\n\n", minDeg, maxDeg)

	fmt.Fprintln(stdout, "flows:")
	total := 0.0
	for _, f := range net.Flows {
		fmt.Fprintf(stdout, "  %-18s %.1f Mb/s\n", f.Name, f.Rate/1e6)
		total += f.Rate
	}
	fmt.Fprintf(stdout, "  total offered: %.1f Mb/s\n", total/1e6)

	if o.links {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, g.String())
	}
	return nil
}

// generate builds a synthetic network of kind scalefree or grid with
// seed-derived demands.
func generate(kind string, seed uint64, n, flows int) *topo.Network {
	net := &topo.Network{}
	if kind == "scalefree" {
		net.Graph = topo.ScaleFree(seed, n, genAttach, genCapacity, genMaxProp)
	} else {
		rows := max(int(math.Sqrt(float64(n))), 1)
		net.Graph = topo.Grid(rows, (n+rows-1)/rows, genCapacity, genMaxProp)
	}
	net.Flows = topo.SynthFlows(seed, net.Graph, flows, genMinRate, genMaxRate)
	return net
}
