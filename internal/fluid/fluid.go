// Package fluid evaluates a routing-parameter assignment on the fluid
// (flow) model of the paper's Section 2: given the offered traffic r_ij and
// the routing parameters φ_ijk, it solves the conservation equations
//
//	t_ij = r_ij + Σ_k t_kj φ_kji                  (Eq. 1)
//	f_ik = Σ_j t_ij φ_ijk                          (Eq. 2)
//
// and computes the M/M/1 delay quantities: the total expected delay D_T of
// Eq. 3 and the expected end-to-end delay of each flow. The solver requires
// the per-destination routing graphs to be acyclic — which every routing
// scheme in this repository guarantees — and processes them in topological
// order, so one evaluation is O(N·L).
package fluid

import (
	"fmt"
	"math"

	"minroute/internal/alloc"
	"minroute/internal/graph"
	"minroute/internal/linkcost"
	"minroute/internal/topo"
)

// Routing supplies the routing parameters: Fractions(i, j) returns φ_ij·,
// the split of router i's traffic for destination j over its successors.
// An empty result means router i has no route to j.
type Routing interface {
	Fractions(i, j graph.NodeID) alloc.Split
}

// RoutingFunc adapts a function to the Routing interface.
type RoutingFunc func(i, j graph.NodeID) alloc.Split

// Fractions implements Routing.
func (f RoutingFunc) Fractions(i, j graph.NodeID) alloc.Split { return f(i, j) }

// Config describes the evaluation setting.
type Config struct {
	Graph *graph.Graph
	Flows []topo.Flow
	// MeanPacketBits converts bit rates to packet rates for the M/M/1
	// queueing terms (the paper's f in packets/second).
	MeanPacketBits float64
}

func (c Config) validate() error {
	if c.Graph == nil {
		return fmt.Errorf("fluid: nil graph")
	}
	if c.MeanPacketBits <= 0 {
		return fmt.Errorf("fluid: non-positive mean packet size")
	}
	for _, f := range c.Flows {
		if f.Rate < 0 {
			return fmt.Errorf("fluid: negative rate for flow %s", f.Name)
		}
	}
	return nil
}

// Result holds the solved traffic quantities, all in bits per second.
type Result struct {
	// NodeTraffic[j][i] is t_ij: traffic at router i destined for j.
	NodeTraffic [][]float64
	// LinkFlow[from][to] is f_ik.
	LinkFlow map[[2]graph.NodeID]float64
	// Lost is offered traffic arriving at a router with no successors.
	Lost float64
}

// Flow returns f_ik in bits per second.
func (r *Result) Flow(from, to graph.NodeID) float64 {
	return r.LinkFlow[[2]graph.NodeID{from, to}]
}

// Solve computes node traffic and link flows under routing rt. It returns
// an error if any per-destination routing graph contains a cycle.
func Solve(cfg Config, rt Routing) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g := cfg.Graph
	n := g.NumNodes()
	res := &Result{
		NodeTraffic: make([][]float64, n),
		LinkFlow:    make(map[[2]graph.NodeID]float64),
	}
	for j := 0; j < n; j++ {
		res.NodeTraffic[j] = make([]float64, n)
	}
	for _, f := range cfg.Flows {
		res.NodeTraffic[f.Dst][f.Src] += f.Rate
	}

	for j := 0; j < n; j++ {
		if err := solveDest(cfg, rt, graph.NodeID(j), res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// solveDest propagates destination-j traffic through the successor graph in
// topological order (Kahn's algorithm).
func solveDest(cfg Config, rt Routing, j graph.NodeID, res *Result) error {
	g := cfg.Graph
	n := g.NumNodes()
	t := res.NodeTraffic[j]

	// indeg[i] counts routing predecessors of i for destination j.
	indeg := make([]int, n)
	frac := make([]alloc.Split, n)
	for i := 0; i < n; i++ {
		if graph.NodeID(i) == j {
			continue
		}
		phi := rt.Fractions(graph.NodeID(i), j)
		frac[i] = phi
		for _, sh := range phi {
			if sh.Frac > 0 {
				indeg[sh.Hop]++
			}
		}
	}
	queue := make([]graph.NodeID, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, graph.NodeID(i))
		}
	}
	processed := 0
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		processed++
		if i != j && t[i] > 0 {
			if len(frac[i]) == 0 {
				res.Lost += t[i]
			} else {
				for _, sh := range frac[i] {
					if sh.Frac <= 0 {
						continue
					}
					share := t[i] * sh.Frac
					t[sh.Hop] += share
					res.LinkFlow[[2]graph.NodeID{i, sh.Hop}] += share
				}
			}
		}
		if i != j {
			// Hops ascending: the release order decides the topological
			// processing order, which in turn fixes the FP summation order
			// of downstream accumulations.
			for _, sh := range frac[i] {
				if sh.Frac > 0 {
					indeg[sh.Hop]--
					if indeg[sh.Hop] == 0 {
						queue = append(queue, sh.Hop)
					}
				}
			}
		}
	}
	if processed != n {
		return fmt.Errorf("fluid: routing graph for destination %d contains a cycle", j)
	}
	return nil
}

// DelayResult holds the delay metrics for one evaluation.
type DelayResult struct {
	// FlowDelay[x] is the expected end-to-end per-packet delay of
	// cfg.Flows[x] in seconds; +Inf when the flow has no complete route.
	FlowDelay []float64
	// NodeDelay[j][i] is W_ij: expected delay from router i to destination j.
	NodeDelay [][]float64
	// TotalDelay is the paper's D_T = Σ_links D_ik(f_ik) with f in
	// packets/second (a delay-weighted packet rate).
	TotalDelay float64
	// MaxUtilization is the highest λ/μ over all links.
	MaxUtilization float64
}

// Delays computes per-flow expected delays and D_T for the solved flows.
func Delays(cfg Config, rt Routing, res *Result) (*DelayResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g := cfg.Graph
	n := g.NumNodes()
	out := &DelayResult{
		FlowDelay: make([]float64, len(cfg.Flows)),
		NodeDelay: make([][]float64, n),
	}

	// Per-packet delay of each link under the solved flows.
	linkDelay := make(map[[2]graph.NodeID]float64, g.NumLinks())
	for _, l := range g.Links() {
		lambda := res.Flow(l.From, l.To) / cfg.MeanPacketBits
		mu := l.Capacity / cfg.MeanPacketBits
		linkDelay[[2]graph.NodeID{l.From, l.To}] = linkcost.MM1Delay(lambda, mu, l.PropDelay)
		out.TotalDelay += linkcost.MM1Total(lambda, mu, l.PropDelay)
		if u := linkcost.Utilization(lambda, mu); u > out.MaxUtilization {
			out.MaxUtilization = u
		}
	}

	for j := 0; j < n; j++ {
		w, err := nodeDelays(cfg, rt, graph.NodeID(j), linkDelay)
		if err != nil {
			return nil, err
		}
		out.NodeDelay[j] = w
	}
	for x, f := range cfg.Flows {
		out.FlowDelay[x] = out.NodeDelay[f.Dst][f.Src]
	}
	return out, nil
}

// nodeDelays computes W_ij = Σ_k φ_ijk (d_ik + W_kj) in reverse topological
// order of the destination-j successor graph.
func nodeDelays(cfg Config, rt Routing, j graph.NodeID, linkDelay map[[2]graph.NodeID]float64) ([]float64, error) {
	n := cfg.Graph.NumNodes()
	w := make([]float64, n)
	frac := make([]alloc.Split, n)
	// pending[i] counts successors whose W is not yet known.
	pending := make([]int, n)
	preds := make([][]graph.NodeID, n)
	for i := 0; i < n; i++ {
		w[i] = math.Inf(1)
		if graph.NodeID(i) == j {
			continue
		}
		phi := rt.Fractions(graph.NodeID(i), j)
		frac[i] = phi
		for _, sh := range phi {
			if sh.Frac > 0 {
				pending[i]++
				preds[sh.Hop] = append(preds[sh.Hop], graph.NodeID(i))
			}
		}
	}
	w[j] = 0
	queue := []graph.NodeID{j}
	// Routers with no successors resolve immediately (to +Inf).
	for i := 0; i < n; i++ {
		if graph.NodeID(i) != j && pending[i] == 0 {
			queue = append(queue, graph.NodeID(i))
		}
	}
	done := 0
	for len(queue) > 0 {
		k := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		done++
		if k != j && pending[k] == 0 && len(frac[k]) > 0 {
			sum := 0.0
			for _, sh := range frac[k] {
				if sh.Frac <= 0 {
					continue
				}
				d, ok := linkDelay[[2]graph.NodeID{k, sh.Hop}]
				if !ok {
					d = math.Inf(1) // φ over a vanished link
				}
				sum += sh.Frac * (d + w[sh.Hop])
			}
			w[k] = sum
		}
		for _, p := range preds[k] {
			pending[p]--
			if pending[p] == 0 {
				queue = append(queue, p)
			}
		}
	}
	if done != n {
		return nil, fmt.Errorf("fluid: delay recursion found a cycle for destination %d", j)
	}
	return w, nil
}
