// Custom: define your own network in the text scenario format, simulate it
// under multipath routing, and inspect where individual packets actually
// went, rebuilding their paths from the telemetry event log.
//
//	go run ./examples/custom
package main

import (
	"fmt"
	"log"
	"strings"

	"minroute/internal/core"
	"minroute/internal/graph"
	"minroute/internal/telemetry"
	"minroute/internal/topo"
)

// scenario is a six-node dumbbell: two hosts on each side, two parallel
// middle links of different capacities, cross traffic both ways.
const scenario = `
# west side
link w1 wgw 100Mbps 0.1ms
link w2 wgw 100Mbps 0.1ms
# two parallel middle links: a fat one and a thin one
link wgw egw 10Mbps 1ms
link wgw mid 10Mbps  0.6ms   # detour adds a hop...
link mid egw 10Mbps  0.6ms   # ...but doubles the cut capacity
# east side
link e1 egw 100Mbps 0.1ms
link e2 egw 100Mbps 0.1ms

flow w1 e1 6Mbps
flow w2 e2 6Mbps
flow e1 w2 3Mbps
`

func main() {
	net, err := topo.Parse(strings.NewReader(scenario))
	if err != nil {
		log.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Warmup, opt.Duration = 40, 20
	opt.Seed = 9
	opt.Telemetry = telemetry.NewCapture(net.Graph.NumNodes()) // record recent packet events

	sim := core.Build(net, opt)
	rep := sim.Run()
	if err := sim.CheckLoopFree(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("custom dumbbell under MP routing:")
	fmt.Print(rep)
	fmt.Printf("reordering fractions:")
	for x := range rep.FlowNames {
		fmt.Printf(" %s=%.4f", rep.FlowNames[x], rep.Reordered[x])
	}
	fmt.Println()

	// The 12 Mb/s of eastbound demand cannot fit the 10 Mb/s direct middle
	// link; the packet paths show the same flow taking both the direct link
	// and the mid detour.
	src := make([]graph.NodeID, len(net.Flows))
	for x, f := range net.Flows {
		src[x] = f.Src
	}
	paths := telemetry.Paths(opt.Telemetry.Trace.Events(), src)
	delivered, withRevisit, maxHops := telemetry.Audit(paths)
	fmt.Printf("\ntraced %d delivered packets, %d with node revisits, longest path %d hops\n",
		delivered, withRevisit, maxHops)

	direct, detour := 0, 0
	mid := net.Graph.MustLookup("mid")
	for _, p := range paths {
		if !p.Delivered() || p.Flow != 0 {
			continue
		}
		viaMid := false
		for _, h := range p.Hops {
			if h.Node == mid {
				viaMid = true
			}
		}
		if viaMid {
			detour++
		} else {
			direct++
		}
	}
	fmt.Printf("flow w1->e1 path usage: %d direct, %d via mid detour\n", direct, detour)
	if detour == 0 {
		fmt.Println("(unexpected: multipath did not engage the detour)")
	} else {
		fmt.Println("unequal-cost multipath in action: one flow, two concurrent paths")
	}
}
