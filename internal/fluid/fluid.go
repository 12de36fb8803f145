// Package fluid evaluates a routing-parameter assignment on the fluid
// (flow) model of the paper's Section 2: given the offered traffic r_ij and
// the routing parameters φ_ijk, it solves the conservation equations
//
//	t_ij = r_ij + Σ_k t_kj φ_kji                  (Eq. 1)
//	f_ik = Σ_j t_ij φ_ijk                          (Eq. 2)
//
// and is the one place a solved φ is priced and traversed:
//
//   - Price is the one pricing pass, in g.Links() order: D_T of Eq. 3 and each
//     link's M/M/1 per-packet delay, marginal delay D′_ik and utilization.
//   - Prices.Distances is the one backward recursion,
//     W_ij = Σ_k φ_ijk (w_ik + W_kj), over a per-link weight w. With the
//     delays it gives the expected delay from i to j (Delays); with the
//     marginals it gives ∂D_T/∂r_ij of Eq. 5, which drives OPT
//     (internal/gallager).
//
// The solver requires the per-destination routing graphs to be acyclic —
// which every routing scheme in this repository guarantees — and processes
// them in topological order, so one evaluation is O(N·L).
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
// A split with no positive share (empty included) means router i has no
// route to j.
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
	// Lost is offered traffic arriving at a router with no route.
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
		LinkFlow:    make(map[[2]graph.NodeID]float64, g.NumLinks()),
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
			if !frac[i].Weighted() {
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

// LinkPrice is one link's M/M/1 pricing at its solved flow.
type LinkPrice struct {
	// Delay is the expected per-packet delay 1/(μ−λ) + τ in seconds.
	Delay float64
	// Marginal is the link cost l_ik = D′_ik(f_ik) = μ/(μ−λ)² + τ.
	Marginal float64
	// Utilization is λ/μ.
	Utilization float64
}

// Prices is a solved flow priced link by link.
type Prices struct {
	// Links[(i, k)] prices link i→k.
	Links map[[2]graph.NodeID]LinkPrice
	// TotalDelay is the paper's D_T = Σ_links D_ik(f_ik) with f in
	// packets/second (a delay-weighted packet rate).
	TotalDelay float64
	// MaxUtilization is the highest λ/μ over all links.
	MaxUtilization float64

	n int
}

// Price prices every link of cfg.Graph at its flow in res, in one pass in
// g.Links() order, (from, to) ascending, so D_T always sums in that order.
// The pass reads each router's g.OutLinks, which hold that order already,
// rather than sorting g.Links() afresh. res must have been solved under cfg.
func Price(cfg Config, res *Result) *Prices {
	g := cfg.Graph
	n := g.NumNodes()
	p := &Prices{Links: make(map[[2]graph.NodeID]LinkPrice, g.NumLinks()), n: n}
	for i := 0; i < n; i++ {
		for _, l := range g.OutLinks(graph.NodeID(i)) {
			lambda := res.Flow(l.From, l.To) / cfg.MeanPacketBits
			mu := linkcost.KnownMu(l.Capacity, cfg.MeanPacketBits)
			u := linkcost.Utilization(lambda, mu)
			p.Links[[2]graph.NodeID{l.From, l.To}] = LinkPrice{
				Delay:       linkcost.MM1Delay(lambda, mu, l.PropDelay),
				Marginal:    linkcost.MM1Marginal(lambda, mu, l.PropDelay),
				Utilization: u,
			}
			p.TotalDelay += linkcost.MM1Total(lambda, mu, l.PropDelay)
			if u > p.MaxUtilization {
				p.MaxUtilization = u
			}
		}
	}
	return p
}

// Distances computes W_ij = Σ_k φ_ijk (w_ik + W_kj), W_jj = 0, for every
// router i, with w_ik = weight(p.Links[(i, k)]), in reverse topological
// order of the destination-j routing graph. A router with no route to j,
// or whose split crosses a link the graph lacks, gets +Inf. It returns an
// error if the routing graph contains a cycle.
func (p *Prices) Distances(rt Routing, j graph.NodeID, weight func(LinkPrice) float64) ([]float64, error) {
	n := p.n
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
		if k != j && frac[k].Weighted() {
			sum := 0.0
			for _, sh := range frac[k] {
				if sh.Frac <= 0 {
					continue
				}
				d := math.Inf(1) // φ over a vanished link
				if lp, ok := p.Links[[2]graph.NodeID{k, sh.Hop}]; ok {
					d = weight(lp)
				}
				sum += sh.Frac * (d + w[sh.Hop])
			}
			w[k] = sum
		}
		for _, q := range preds[k] {
			pending[q]--
			if pending[q] == 0 {
				queue = append(queue, q)
			}
		}
	}
	if done != n {
		return nil, fmt.Errorf("fluid: recursion found a cycle for destination %d", j)
	}
	return w, nil
}

// DelayResult holds the delay metrics for one evaluation.
type DelayResult struct {
	// FlowDelay[x] is the expected end-to-end per-packet delay of
	// cfg.Flows[x] in seconds; +Inf when the flow has no complete route.
	FlowDelay []float64
	// NodeDelay[j][i] is W_ij: expected delay from router i to destination j.
	NodeDelay [][]float64
	// TotalDelay is D_T (see Prices).
	TotalDelay float64
	// MaxUtilization is the highest λ/μ over all links.
	MaxUtilization float64
}

// Delays computes per-flow expected delays and D_T for the solved flows.
func Delays(cfg Config, rt Routing, res *Result) (*DelayResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.Graph.NumNodes()
	p := Price(cfg, res)
	out := &DelayResult{
		FlowDelay:      make([]float64, len(cfg.Flows)),
		NodeDelay:      make([][]float64, n),
		TotalDelay:     p.TotalDelay,
		MaxUtilization: p.MaxUtilization,
	}
	for j := 0; j < n; j++ {
		w, err := p.Distances(rt, graph.NodeID(j), func(l LinkPrice) float64 { return l.Delay })
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
