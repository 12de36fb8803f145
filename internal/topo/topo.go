// Package topo builds the topologies of the paper's Figure 8 — CAIRN and
// NET1 — plus synthetic generators used by tests.
//
// CAIRN was DARPA's Collaborative Advanced Interagency Research Network. The
// paper uses only its connectivity ("its topology as used differs from the
// real network in the capacities and propagation delays assumed"), caps link
// capacities at 10 Mb/s, and sets up eleven flows between named sites. The
// figure in the available text is not machine readable, so the wiring here is
// a reconstruction from the node names and flow list in the paper: a sparse
// continental research backbone, West-coast and East-coast clusters joined by
// a small number of long-haul links. What the experiments depend on — a real,
// sparse network where alternate paths exist but are scarce — is preserved.
//
// NET1 is the paper's contrived network: "a connectivity that is high enough
// to ensure the existence of multiple paths, and small enough to prevent a
// large number of one-hop paths. The diameter of NET1 is four and the nodes
// have degrees between 3 and 5." The construction below — two 4-cliques
// joined by a two-link-wide bridge — satisfies all three properties exactly
// (verified in tests).
package topo

import (
	"fmt"

	"minroute/internal/graph"
	"minroute/internal/rng"
)

// Flow is an offered traffic demand: Rate bits per second entering the
// network at Src destined for Dst (the r_ij of the paper).
type Flow struct {
	Name string
	Src  graph.NodeID
	Dst  graph.NodeID
	Rate float64 // bits per second
}

// Network bundles a topology with its configured demand set.
type Network struct {
	Graph *graph.Graph
	Flows []Flow
}

// Mb is one megabit per second.
const Mb = 1e6

// cairnLink describes one duplex link of the CAIRN reconstruction.
type cairnLink struct {
	a, b string
	prop float64 // seconds
}

// cairnWiring is the reconstructed CAIRN connectivity. Propagation delays
// are short (0.1–1 ms) as in the paper, whose measured average delays are in
// the low-millisecond range; queueing, not propagation, dominates.
var cairnWiring = []cairnLink{
	// West-coast cluster.
	{"isi", "ucla", 0.2e-3},
	{"isi", "ucsc", 0.4e-3},
	{"isi", "sri", 0.4e-3},
	{"isi", "cisco-w", 0.3e-3},
	{"isi", "sdsc", 0.2e-3},
	{"isi", "tioc", 0.3e-3},
	{"ucla", "sdsc", 0.2e-3},
	{"ucsc", "ucb", 0.1e-3},
	{"ucb", "lbl", 0.1e-3},
	{"ucb", "sri", 0.1e-3},
	{"lbl", "sri", 0.1e-3},
	{"lbl", "nasa", 0.1e-3},
	{"sri", "parc", 0.1e-3},
	{"sri", "tioc", 0.2e-3},
	{"parc", "cisco-w", 0.1e-3},
	{"cisco-w", "nasa", 0.1e-3},
	{"sdsc", "saic", 0.1e-3},
	// Long-haul middle: two northern cross-country paths (via netstar and
	// directly nasa-anl) plus the southern sdsc-saic-nrl-v6 route, so that
	// alternate long-haul paths exist — the property the paper's CAIRN
	// experiments rely on ("In the presence of link failures, MP can only
	// perform better than SP, because of availability of alternate paths").
	{"nasa", "netstar", 1.0e-3},
	{"netstar", "anl", 0.5e-3},
	{"nasa", "anl", 1.2e-3},
	{"anl", "cisco-e", 0.5e-3},
	{"anl", "cmu", 0.4e-3},
	{"saic", "nrl-v6", 1.0e-3},
	// East-coast cluster.
	{"cisco-e", "bbn", 0.2e-3},
	{"cisco-e", "mit", 0.2e-3},
	{"mit", "bbn", 0.1e-3},
	{"bbn", "mci-r", 0.3e-3},
	{"bbn", "bell", 0.2e-3},
	{"bell", "udel", 0.2e-3},
	{"mci-r", "darpa", 0.1e-3},
	{"mci-r", "tis", 0.1e-3},
	{"darpa", "tis", 0.1e-3},
	{"darpa", "isi-e", 0.1e-3},
	{"isi-e", "nrl-v6", 0.1e-3},
	{"isi-e", "udel", 0.2e-3},
	{"udel", "cmu", 0.3e-3},
	{"tis", "udel", 0.2e-3},
	// Transatlantic.
	{"isi-e", "ucl", 1.0e-3},
	{"mit", "ucl", 1.0e-3},
}

// cairnFlowPairs is the flow list from Section 5 of the paper, in order.
var cairnFlowPairs = [][2]string{
	{"lbl", "mci-r"},
	{"netstar", "isi-e"},
	{"isi", "darpa"},
	{"parc", "sdsc"},
	{"sri", "mit"},
	{"tioc", "sdsc"},
	{"mit", "sri"},
	{"isi-e", "netstar"},
	{"sdsc", "parc"},
	{"mci-r", "tioc"},
	{"darpa", "isi"},
}

// cairnRates assigns deterministic offered loads in the paper's 1–4 Mb/s
// range, sized so the eastbound cross-country demand (8.5 Mb/s) saturates a
// single 10 Mb/s long-haul link when single-path routing concentrates it,
// while multipath routing can spread it over the parallel middle routes.
var cairnRates = []float64{3.0 * Mb, 1.5 * Mb, 3.0 * Mb, 2.0 * Mb, 3.0 * Mb, 1.0 * Mb, 3.5 * Mb, 2.0 * Mb, 1.5 * Mb, 3.0 * Mb, 2.5 * Mb}

// CAIRN builds the CAIRN reconstruction with all links at 10 Mb/s and the
// paper's eleven flows.
func CAIRN() *Network {
	g := graph.New()
	for _, l := range cairnWiring {
		a, b := g.AddNode(l.a), g.AddNode(l.b)
		if err := g.AddDuplex(a, b, 10*Mb, l.prop); err != nil {
			panic("topo: CAIRN wiring: " + err.Error())
		}
	}
	if err := g.Validate(); err != nil {
		panic("topo: CAIRN invalid: " + err.Error())
	}
	n := &Network{Graph: g}
	for i, p := range cairnFlowPairs {
		n.Flows = append(n.Flows, Flow{
			Name: fmt.Sprintf("%s->%s", p[0], p[1]),
			Src:  g.MustLookup(p[0]),
			Dst:  g.MustLookup(p[1]),
			Rate: cairnRates[i],
		})
	}
	return n
}

// net1Edges: two 4-cliques {0,1,2,3} and {6,7,8,9} joined by bridge nodes 4
// and 5. Degrees are 3–5 and the diameter is exactly 4.
var net1Edges = [][2]int{
	{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, // west clique
	{1, 4}, {3, 4}, {4, 5}, {5, 6}, {5, 8}, {4, 8}, // bridge
	{6, 7}, {6, 8}, {6, 9}, {7, 8}, {7, 9}, {8, 9}, // east clique
}

// net1FlowPairs is the flow list from Section 5 of the paper, in order.
var net1FlowPairs = [][2]int{
	{9, 2}, {8, 3}, {7, 0}, {6, 1}, {5, 8}, {4, 1}, {3, 8}, {2, 9}, {1, 6}, {0, 7},
}

// net1Rates keeps each direction's bridge-crossing demand at 9 Mb/s —
// heavy enough that single-path routing concentrating it on one 10 Mb/s
// bridge runs at ~90% utilization (the paper's "sufficiently load the
// networks" regime) while multipath spreads it across both bridges.
var net1Rates = []float64{3.0 * Mb, 1.5 * Mb, 2.5 * Mb, 2.0 * Mb, 3.0 * Mb, 1.0 * Mb, 2.5 * Mb, 2.0 * Mb, 1.5 * Mb, 3.0 * Mb}

// NET1 builds the contrived NET1 network with all links at 10 Mb/s and the
// paper's ten flows between nodes 0–9.
func NET1() *Network {
	g := graph.New()
	for i := 0; i < 10; i++ {
		g.AddNode(fmt.Sprintf("%d", i))
	}
	for _, e := range net1Edges {
		if err := g.AddDuplex(graph.NodeID(e[0]), graph.NodeID(e[1]), 10*Mb, 0.5e-3); err != nil {
			panic("topo: NET1 wiring: " + err.Error())
		}
	}
	if err := g.Validate(); err != nil {
		panic("topo: NET1 invalid: " + err.Error())
	}
	n := &Network{Graph: g}
	for i, p := range net1FlowPairs {
		n.Flows = append(n.Flows, Flow{
			Name: fmt.Sprintf("%d->%d", p[0], p[1]),
			Src:  graph.NodeID(p[0]),
			Dst:  graph.NodeID(p[1]),
			Rate: net1Rates[i],
		})
	}
	return n
}

// Ring builds an n-node ring with uniform link parameters. Used in tests:
// rings give every destination exactly two maximally disjoint paths.
func Ring(n int, capacity, prop float64) *graph.Graph {
	if n < 3 {
		panic("topo: Ring needs n >= 3")
	}
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("r%d", i))
	}
	for i := 0; i < n; i++ {
		if err := g.AddDuplex(graph.NodeID(i), graph.NodeID((i+1)%n), capacity, prop); err != nil {
			panic("topo: Ring: " + err.Error())
		}
	}
	return g
}

// Grid builds a rows×cols mesh with uniform link parameters.
func Grid(rows, cols int, capacity, prop float64) *graph.Graph {
	if rows < 1 || cols < 1 {
		panic("topo: Grid needs positive dimensions")
	}
	g := graph.New()
	id := func(r, c int) graph.NodeID { return graph.NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.AddNode(fmt.Sprintf("g%d_%d", r, c))
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				if err := g.AddDuplex(id(r, c), id(r, c+1), capacity, prop); err != nil {
					panic("topo: Grid: " + err.Error())
				}
			}
			if r+1 < rows {
				if err := g.AddDuplex(id(r, c), id(r+1, c), capacity, prop); err != nil {
					panic("topo: Grid: " + err.Error())
				}
			}
		}
	}
	return g
}

// Random builds a random connected symmetric graph: a random spanning path
// plus extra random duplex links, with capacities in [minCap, maxCap] and
// propagation delays up to maxProp. Deterministic for a given seed.
func Random(seed uint64, n, extraLinks int, minCap, maxCap, maxProp float64) *graph.Graph {
	if n < 2 {
		panic("topo: Random needs n >= 2")
	}
	r := rng.New(seed)
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("x%d", i))
	}
	randCap := func() float64 {
		if maxCap <= minCap {
			return minCap
		}
		return minCap + r.Float64()*(maxCap-minCap)
	}
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		if err := g.AddDuplex(graph.NodeID(perm[i-1]), graph.NodeID(perm[i]), randCap(), r.Float64()*maxProp); err != nil {
			panic("topo: Random: " + err.Error())
		}
	}
	for i := 0; i < extraLinks; i++ {
		a, b := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		if a == b {
			continue
		}
		if _, ok := g.Link(a, b); ok {
			continue
		}
		if err := g.AddDuplex(a, b, randCap(), r.Float64()*maxProp); err != nil {
			panic("topo: Random: " + err.Error())
		}
	}
	return g
}

// ScaleFree builds a Barabási–Albert preferential-attachment graph: a seed
// clique of m+1 nodes, then each new node attaches m duplex links to
// existing nodes chosen proportionally to their current degree. The result
// has the hub-dominated degree distribution of real internetworks, which is
// the interesting regime for sharded execution: hubs concentrate load while
// the tail stays sparse. Propagation delays are drawn from
// [0.1*maxProp, maxProp) — strictly positive, because the conservative
// shard window is the minimum propagation delay and must be > 0.
// Deterministic for a given seed.
func ScaleFree(seed uint64, n, m int, capacity, maxProp float64) *graph.Graph {
	if m < 1 {
		panic("topo: ScaleFree needs m >= 1")
	}
	if n < m+2 {
		panic("topo: ScaleFree needs n >= m+2")
	}
	r := rng.New(seed)
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("s%d", i))
	}
	prop := func() float64 { return maxProp * (0.1 + 0.9*r.Float64()) }
	// targets holds one entry per link endpoint, so uniform sampling from it
	// is degree-proportional sampling of nodes.
	var targets []graph.NodeID
	addDuplex := func(a, b graph.NodeID) {
		if err := g.AddDuplex(a, b, capacity, prop()); err != nil {
			panic("topo: ScaleFree: " + err.Error())
		}
		targets = append(targets, a, b)
	}
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			addDuplex(graph.NodeID(i), graph.NodeID(j))
		}
	}
	for v := m + 1; v < n; v++ {
		attached := 0
		for attached < m {
			t := targets[r.Intn(len(targets))]
			if int(t) == v {
				continue
			}
			if _, ok := g.Link(graph.NodeID(v), t); ok {
				continue
			}
			addDuplex(graph.NodeID(v), t)
			attached++
		}
	}
	return g
}

// SynthFlows draws count random demands over g: distinct src/dst pairs with
// rates uniform in [minRate, maxRate]. Deterministic for a given seed.
func SynthFlows(seed uint64, g *graph.Graph, count int, minRate, maxRate float64) []Flow {
	r := rng.New(seed).Split(0xf10e)
	n := g.NumNodes()
	flows := make([]Flow, 0, count)
	for i := 0; i < count; i++ {
		src := graph.NodeID(r.Intn(n))
		dst := graph.NodeID(r.Intn(n))
		if src == dst {
			dst = graph.NodeID((int(dst) + 1) % n)
		}
		rate := minRate
		if maxRate > minRate {
			rate += r.Float64() * (maxRate - minRate)
		}
		flows = append(flows, Flow{
			Name: fmt.Sprintf("f%d:%s-%s", i, g.Name(src), g.Name(dst)),
			Src:  src,
			Dst:  dst,
			Rate: rate,
		})
	}
	return flows
}

// PropCost is the protocol-level cost of a link nobody is measuring:
// propagation delay plus a small per-hop charge. The protocol harnesses,
// the chaos runner and the live mesh all announce links at this cost, so
// their converged tables are comparable.
func PropCost(l *graph.Link) float64 { return l.PropDelay + 1e-4 }

// ScaleFlows returns a copy of flows with every rate multiplied by factor.
// Used for load sweeps.
func ScaleFlows(flows []Flow, factor float64) []Flow {
	out := make([]Flow, len(flows))
	for i, f := range flows {
		f.Rate *= factor
		out[i] = f
	}
	return out
}

// Connectivity builds a family member of random connected graphs whose
// richness is controlled by extraFraction: 0 yields a spanning tree-ish
// path (minimal connectivity), 1 adds roughly one extra duplex link per
// node. Used by the connectivity-sweep experiment (the paper: "MP routing
// performs much better under high-connectivity and high-load
// environments").
func Connectivity(seed uint64, n int, extraFraction, capacity, prop float64) *graph.Graph {
	if extraFraction < 0 {
		extraFraction = 0
	}
	extra := int(extraFraction * float64(n))
	return Random(seed, n, extra, capacity, capacity, prop)
}
