// Protocols: compare the two loop-free multipath protocols this library
// implements — MPDA (link-state, the paper's contribution) and DVMP (the
// same Loop-Free Invariant framework applied to a distance-vector
// algorithm) — on convergence cost: messages exchanged until quiescence on
// the paper's topologies, from cold start and after a link failure. Both
// converge to identical successor sets (verified here).
//
//	go run ./examples/protocols
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"minroute/internal/dvmp"
	"minroute/internal/graph"
	"minroute/internal/lfi"
	"minroute/internal/mpda"
	"minroute/internal/protonet"
	"minroute/internal/topo"
)

// proto abstracts the two router families for this comparison.
type proto interface {
	protonet.Node
	lfi.RouterView
	Dist(j graph.NodeID) float64
}

func build(g *graph.Graph, kind string, seed uint64) (*protonet.Net, map[graph.NodeID]proto) {
	net := protonet.New(g, seed)
	routers := make(map[graph.NodeID]proto)
	for _, id := range g.Nodes() {
		var r proto
		switch kind {
		case "mpda":
			r = mpda.NewRouter(id, g.NumNodes(), net.Sender(id))
		case "dvmp":
			r = dvmp.NewRouter(id, g.NumNodes(), net.Sender(id))
		}
		routers[id] = r
		net.Attach(id, r)
	}
	net.BringUpAll(func(l *graph.Link) float64 { return l.PropDelay + 1e-4 })
	return net, routers
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	fmt.Fprintf(w, "%-8s %-8s %14s %16s\n", "topology", "protocol", "cold-start msgs", "post-failure msgs")
	for _, tc := range []struct {
		name  string
		build func() *topo.Network
		fail  [2]graph.NodeID
	}{
		{"NET1", topo.NET1, [2]graph.NodeID{4, 5}},
		{"CAIRN", topo.CAIRN, [2]graph.NodeID{0, 2}},
	} {
		results := map[string]map[graph.NodeID]proto{}
		for _, kind := range []string{"mpda", "dvmp"} {
			g := tc.build().Graph
			net, routers := build(g, kind, 11)
			cold := net.Run(5000000)
			net.FailLink(tc.fail[0], tc.fail[1])
			after := net.Run(5000000)
			fmt.Fprintf(w, "%-8s %-8s %14d %16d\n", tc.name, kind, cold, after)
			results[kind] = routers
		}
		// Both protocols must agree on every successor set at convergence.
		g := tc.build().Graph
		g.RemoveLink(tc.fail[0], tc.fail[1])
		g.RemoveLink(tc.fail[1], tc.fail[0])
		for _, id := range g.Nodes() {
			for j := 0; j < g.NumNodes(); j++ {
				a := results["mpda"][id].Successors(graph.NodeID(j))
				b := results["dvmp"][id].Successors(graph.NodeID(j))
				if len(a) != len(b) {
					return fmt.Errorf("%s: router %d dest %d: MPDA %v vs DVMP %v", tc.name, id, j, a, b)
				}
				for x := range a {
					if a[x] != b[x] {
						return fmt.Errorf("%s: router %d dest %d: MPDA %v vs DVMP %v", tc.name, id, j, a, b)
					}
				}
			}
		}
		fmt.Fprintf(w, "%-8s successor sets identical across protocols: OK\n\n", tc.name)
	}
	fmt.Fprintln(w, "same loop-free multipath routes; different state/message trade-offs")
	return nil
}
