// Command mdrtopo inspects the paper's topologies (Fig. 8): node and link
// counts, degrees, diameter, the configured flows, and the full link list.
// It also generates large synthetic topologies (scale-free or grid, hundreds
// of routers) in the scenario text format, which feed sharded runs
// (mdrsim -scenario big.topo -shards N).
//
// Usage:
//
//	mdrtopo -topo cairn
//	mdrtopo -topo net1 -links
//	mdrtopo -gen scalefree -n 200 -flows 64 -out big.topo
//	mdrtopo -gen grid -n 400 -flows 100 -out grid.topo
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"minroute/internal/topo"
)

func main() {
	var (
		topoName = flag.String("topo", "cairn", "topology: cairn or net1")
		links    = flag.Bool("links", false, "print the full link list")

		gen     = flag.String("gen", "", "generate a synthetic topology: scalefree or grid")
		n       = flag.Int("n", 200, "generated router count (200-1000 is the scaling-benchmark range)")
		m       = flag.Int("m", 2, "scalefree: links each new router attaches with")
		seed    = flag.Uint64("seed", 1, "generator seed")
		flows   = flag.Int("flows", 64, "generated flow count")
		rate    = flag.Float64("rate", 1.0, "mean flow rate in Mb/s (drawn from [0.5x, 1.5x])")
		capMbps = flag.Float64("cap", 10, "generated link capacity in Mb/s")
		maxProp = flag.Float64("maxprop", 2e-3, "maximum propagation delay in seconds")
		out     = flag.String("out", "", "write the generated network in scenario format to this file (default stdout)")
	)
	flag.Parse()

	var net *topo.Network
	generated := *gen != ""
	switch {
	case !generated && *topoName == "cairn":
		net = topo.CAIRN()
	case !generated && *topoName == "net1":
		net = topo.NET1()
	case generated:
		var err error
		if net, err = generate(*gen, *seed, *n, *m, *flows, *rate*topo.Mb, *capMbps*topo.Mb, *maxProp); err != nil {
			fmt.Fprintf(os.Stderr, "mdrtopo: %v\n", err)
			os.Exit(2)
		}
	default:
		fmt.Fprintf(os.Stderr, "mdrtopo: unknown topology %q\n", *topoName)
		os.Exit(2)
	}

	if generated {
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mdrtopo: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		if err := topo.Format(w, net); err != nil {
			fmt.Fprintf(os.Stderr, "mdrtopo: %v\n", err)
			os.Exit(1)
		}
		g := net.Graph
		fmt.Fprintf(os.Stderr, "%s: %d nodes, %d directed links, %d flows\n",
			*gen, g.NumNodes(), g.NumLinks(), len(net.Flows))
		return
	}

	g := net.Graph
	fmt.Printf("%s: %d nodes, %d directed links, diameter %d\n",
		*topoName, g.NumNodes(), g.NumLinks(), g.Diameter())

	minDeg, maxDeg := 1<<30, 0
	for _, id := range g.Nodes() {
		d := g.Degree(id)
		if d < minDeg {
			minDeg = d
		}
		if d > maxDeg {
			maxDeg = d
		}
	}
	fmt.Printf("degrees: %d..%d\n\n", minDeg, maxDeg)

	fmt.Println("flows:")
	total := 0.0
	for _, f := range net.Flows {
		fmt.Printf("  %-18s %.1f Mb/s\n", f.Name, f.Rate/1e6)
		total += f.Rate
	}
	fmt.Printf("  total offered: %.1f Mb/s\n", total/1e6)

	if *links {
		fmt.Println()
		fmt.Print(g.String())
	}
}

// generate builds a synthetic network with seed-derived demands.
func generate(kind string, seed uint64, n, m, flows int, rate, capacity, maxProp float64) (*topo.Network, error) {
	net := &topo.Network{}
	switch kind {
	case "scalefree":
		net.Graph = topo.ScaleFree(seed, n, m, capacity, maxProp)
	case "grid":
		rows := int(math.Sqrt(float64(n)))
		if rows < 1 {
			rows = 1
		}
		cols := (n + rows - 1) / rows
		net.Graph = topo.Grid(rows, cols, capacity, maxProp)
	default:
		return nil, fmt.Errorf("unknown generator %q (want scalefree or grid)", kind)
	}
	net.Flows = topo.SynthFlows(seed, net.Graph, flows, 0.5*rate, 1.5*rate)
	return net, nil
}
