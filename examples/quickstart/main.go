// Quickstart: build the paper's NET1 topology, run the near-optimal
// multipath routing framework (MPDA + IH/AH load balancing) on a packet
// simulation, print per-flow average delays, and audit the paths the
// packets actually took, rebuilt from the telemetry event log.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"minroute/internal/core"
	"minroute/internal/graph"
	"minroute/internal/telemetry"
	"minroute/internal/topo"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// NET1: ten routers, two 4-cliques joined by a two-link bridge, ten
	// flows of 1-3 Mb/s (Section 5 of the paper).
	network := topo.NET1()

	// Default options are the paper's MP-TL-10-TS-2 configuration:
	// long-term route updates every 10 s, local load-balancing every 2 s.
	opt := core.DefaultOptions()
	opt.Warmup = 40   // let the protocol and queues reach steady state
	opt.Duration = 20 // measurement period
	opt.Seed = 7
	// Record recent packet events; capture does not change the run.
	opt.Telemetry = telemetry.NewCapture(network.Graph.NumNodes())

	sim := core.Build(network, opt)
	rep := sim.Run()

	fmt.Fprintln(w, "MP (multipath minimum-delay approximation) on NET1:")
	fmt.Fprint(w, rep)
	fmt.Fprintf(w, "average of per-flow means: %.3f ms\n", rep.AvgMeanDelayMs())
	fmt.Fprintf(w, "loss rate: %.5f, LSU messages: %d\n", rep.LossRate(), rep.ControlMessages)

	// The headline safety property — Theorem 3: the successor graphs are
	// loop-free at every instant — is auditable at any time.
	if err := sim.CheckLoopFree(); err != nil {
		return fmt.Errorf("loop-freedom violated: %w", err)
	}
	fmt.Fprintln(w, "loop-freedom audit: OK")

	// The same property on the packets themselves: no traced packet visits
	// a router twice, while unequal-cost multipath sends one flow down
	// several paths at once.
	src := make([]graph.NodeID, len(network.Flows))
	for x, f := range network.Flows {
		src[x] = f.Src
	}
	paths := telemetry.Paths(opt.Telemetry.Trace.Events(), src)
	delivered, withRevisit, maxHops := telemetry.Audit(paths)
	fmt.Fprintf(w, "traced %d delivered packets, %d with node revisits, longest path %d hops\n",
		delivered, withRevisit, maxHops)
	routes := make([]map[string]bool, len(network.Flows))
	for i := range paths {
		p := &paths[i]
		if !p.Delivered() {
			continue
		}
		var route strings.Builder
		for _, h := range p.Hops {
			fmt.Fprintf(&route, "%d ", h.Node)
		}
		if routes[p.Flow] == nil {
			routes[p.Flow] = make(map[string]bool)
		}
		routes[p.Flow][route.String()] = true
	}
	multipath := 0
	for _, r := range routes {
		if len(r) >= 2 {
			multipath++
		}
	}
	fmt.Fprintf(w, "%d of %d flows used two or more distinct paths\n", multipath, len(routes))
	return nil
}
