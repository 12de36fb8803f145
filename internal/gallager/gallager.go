// Package gallager implements Gallager's distributed minimum-delay routing
// algorithm (Gallager 1977; the paper's Section 2.2, labeled OPT), which the
// paper uses as the optimal-delay baseline. The iteration solves MDRP: find
// routing parameters φ minimizing the total expected delay D_T.
//
// Each iteration:
//
//  1. Solves the flow equations for the current φ (fluid.Solve).
//  2. Prices the links at those flows (fluid.Price): D_T and the link
//     marginal delays l_ik = D'_ik(f_ik).
//  3. Computes marginal distances ∂D_T/∂r_ij by the recursion of Eq. 5,
//     ∂D/∂r_ij = Σ_k φ_ijk (l_ik + ∂D/∂r_kj): fluid's one backward
//     recursion (Prices.Distances) weighted by the marginals.
//  4. Shifts routing fractions away from non-minimal next hops:
//     Δφ_ijk = min(φ_ijk, η·a_ijk/t_ij), where a_ijk is the excess marginal
//     distance of k over the best neighbor, and adds the total to the best
//     neighbor — honoring Gallager's blocking technique: a neighbor whose
//     current routing is improper (or that forwards through one) may not
//     receive new flow, which preserves loop-freedom at every step.
//
// As the paper stresses, OPT needs a global step size η chosen a priori and
// stationary input traffic; it is "a method for obtaining lower bounds ...
// rather than an algorithm to be used in practice". This implementation
// runs the iteration centrally on the fluid model and adapts η downward
// when an iteration fails to improve D_T, which keeps the lower-bound
// computation robust without changing the fixed points.
package gallager

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"minroute/internal/alloc"
	"minroute/internal/dijkstra"
	"minroute/internal/fluid"
	"minroute/internal/graph"
	"minroute/internal/linkcost"
	"minroute/internal/topo"
)

const (
	// eta0 is Gallager's global step size at the start; the line search
	// scales it up and down from here.
	eta0 = 1.0
	// tol is the relative D_T improvement below which an iteration counts
	// as no progress.
	tol = 1e-9
)

// Options tunes the solver. Zero values select sensible defaults.
type Options struct {
	// MaxIters bounds the iteration count. Default 2000.
	MaxIters int
	// MeanPacketBits converts bit rates to packet rates. Default
	// linkcost.MeanPacketBits.
	MeanPacketBits float64
}

func (o *Options) setDefaults() {
	if o.MaxIters <= 0 {
		o.MaxIters = 2000
	}
	if o.MeanPacketBits <= 0 {
		o.MeanPacketBits = linkcost.MeanPacketBits
	}
}

// Result is the converged routing.
type Result struct {
	// Phi[j][i] holds φ_ij·, the fractions router i uses for destination j.
	Phi [][]alloc.Split
	// TotalDelay is the final D_T.
	TotalDelay float64
	// Iterations actually performed.
	Iterations int
	// Converged reports whether the iteration stalled (no relative D_T
	// improvement above tol for a window of iterations) before MaxIters.
	Converged bool
}

// Fractions implements fluid.Routing.
func (r *Result) Fractions(i, j graph.NodeID) alloc.Split { return r.Phi[j][i] }

// Solve runs the OPT iteration for the given demands.
//
// The update rule is Gallager's; the step size is managed as a backtracking
// line search around it. Each iteration proposes φ' = update(φ, η): if D_T
// does not increase the proposal is accepted (and η doubles after a streak
// of successes, since Gallager's fixed global η has no natural scale for a
// given network); otherwise φ is kept and η halves. Iteration stops when a
// window of iterations brings no relative improvement above tol.
func Solve(g *graph.Graph, flows []topo.Flow, opt Options) (*Result, error) {
	opt.setDefaults()
	n := g.NumNodes()
	s := &solver{
		g:    g,
		n:    n,
		opt:  opt,
		cfg:  fluid.Config{Graph: g, Flows: flows, MeanPacketBits: opt.MeanPacketBits},
		dest: destSet(flows),
	}
	s.initShortestPath()

	res := &Result{}
	eta := eta0
	best := math.Inf(1)
	lastImprovedIter := 0
	streak := 0
	const stallWindow = 30
	for iter := 0; iter < opt.MaxIters; iter++ {
		res.Iterations = iter + 1
		dt, candidate, err := s.propose(eta)
		if err != nil {
			return nil, err
		}
		if dt < best*(1-tol) {
			lastImprovedIter = iter
		}
		if dt < best {
			best = dt
		}
		dtNew, okCand := s.evaluate(candidate)
		if okCand && dtNew <= dt*(1+1e-12) {
			s.phi = candidate
			streak++
			if streak >= 3 {
				eta *= 2
				streak = 0
			}
		} else {
			// Overshoot (or the candidate formed a loop despite blocking,
			// which the fluid solver rejects): keep φ, shrink the step.
			eta /= 2
			streak = 0
			if eta < eta0*1e-12 {
				break
			}
		}
		if iter-lastImprovedIter >= stallWindow {
			res.Converged = true
			break
		}
	}
	if final, ok := s.evaluate(s.phi); ok {
		best = math.Min(best, final)
	}
	res.Phi = s.phi
	res.TotalDelay = best
	if res.Iterations < opt.MaxIters {
		res.Converged = true
	}
	return res, nil
}

// evaluate returns D_T under the given routing parameters, reporting false
// when the parameters are not evaluable (cyclic routing graph).
func (s *solver) evaluate(phi [][]alloc.Split) (float64, bool) {
	rt := fluid.RoutingFunc(func(i, j graph.NodeID) alloc.Split { return phi[j][i] })
	res, err := fluid.Solve(s.cfg, rt)
	if err != nil {
		return 0, false
	}
	return fluid.Price(s.cfg, res).TotalDelay, true
}

type solver struct {
	g    *graph.Graph
	n    int
	opt  Options
	cfg  fluid.Config
	dest map[graph.NodeID]bool
	// phi[j][i] = φ_ij·; a step writes new Splits, never into these.
	phi [][]alloc.Split
}

func destSet(flows []topo.Flow) map[graph.NodeID]bool {
	m := make(map[graph.NodeID]bool)
	for _, f := range flows {
		m[f.Dst] = true
	}
	return m
}

// Fractions implements fluid.Routing for the in-progress state.
func (s *solver) Fractions(i, j graph.NodeID) alloc.Split { return s.phi[j][i] }

// initShortestPath seeds φ with single shortest paths under zero-flow
// marginal costs — a loop-free starting point, as Gallager requires.
func (s *solver) initShortestPath() {
	s.phi = make([][]alloc.Split, s.n)
	idleCost := func(l *graph.Link) float64 {
		mu := linkcost.KnownMu(l.Capacity, s.opt.MeanPacketBits)
		return linkcost.MM1Marginal(0, mu, l.PropDelay)
	}
	view := dijkstra.GraphView{G: s.g, Cost: idleCost}
	// Distances from every node; next hops toward each destination.
	results := make([]*dijkstra.Result, s.n)
	for i := 0; i < s.n; i++ {
		results[i] = dijkstra.Run(view, graph.NodeID(i))
	}
	for j := 0; j < s.n; j++ {
		s.phi[j] = make([]alloc.Split, s.n)
		if !s.dest[graph.NodeID(j)] {
			continue
		}
		for i := 0; i < s.n; i++ {
			if i == j {
				continue
			}
			if nh := results[i].NextHop(graph.NodeID(j)); nh != graph.None {
				s.phi[j][i] = alloc.Single(nh)
			}
		}
	}
}

// marginal weights fluid's recursion by the link marginal delays, so that it
// computes Eq. 5's marginal distances ∂D_T/∂r_ij.
func marginal(l fluid.LinkPrice) float64 { return l.Marginal }

// propose computes the gradients at the current φ and returns the current
// D_T along with a candidate φ produced by one Gallager step of size eta.
// The current φ is left untouched.
func (s *solver) propose(eta float64) (float64, [][]alloc.Split, error) {
	res, err := fluid.Solve(s.cfg, s)
	if err != nil {
		return 0, nil, fmt.Errorf("gallager: %w", err)
	}
	p := fluid.Price(s.cfg, res)
	candidate := make([][]alloc.Split, s.n)
	for j := range s.phi {
		candidate[j] = slices.Clone(s.phi[j])
		jid := graph.NodeID(j)
		if !s.dest[jid] {
			continue
		}
		lam, err := p.Distances(s, jid, marginal)
		if err != nil {
			return 0, nil, fmt.Errorf("gallager: %w", err)
		}
		s.updateDest(candidate, jid, lam, p, s.blockedSet(jid, lam), eta, res)
	}
	return p.TotalDelay, candidate, nil
}

// blockedSet implements Gallager's blocking: node k is blocked for
// destination j when some routing path from k to j traverses an improper
// link — a link (l, m) with φ_ljm > 0 and ∂D/∂r_mj + l_lm ≥ ∂D/∂r_lj is
// not strictly downhill. New flow must not be steered toward blocked nodes.
func (s *solver) blockedSet(j graph.NodeID, lam []float64) []bool {
	blocked := make([]bool, s.n)
	state := make([]byte, s.n) // 0 unknown, 1 visiting, 2 done
	var visit func(k graph.NodeID) bool
	visit = func(k graph.NodeID) bool {
		if k == j {
			return false
		}
		switch state[k] {
		case 2:
			return blocked[k]
		case 1:
			// Cycle should be impossible; treat defensively as blocked.
			return true
		}
		state[k] = 1
		b := false
		for _, sh := range s.phi[j][k] {
			if sh.Frac <= 0 {
				continue
			}
			m := sh.Hop
			improper := !(lam[m] < lam[k]) // m not strictly closer in marginal distance
			if improper || visit(m) {
				b = true
			}
		}
		state[k] = 2
		blocked[k] = b
		return b
	}
	for i := 0; i < s.n; i++ {
		visit(graph.NodeID(i))
	}
	return blocked
}

// updateDest applies Gallager's φ update for destination j, writing each
// router's updated φ_ij· as a new Split into candidate[j] (gradients were
// taken at the current φ).
func (s *solver) updateDest(candidate [][]alloc.Split, j graph.NodeID, lam []float64,
	p *fluid.Prices, blocked []bool, eta float64, flows *fluid.Result) {
	for i := 0; i < s.n; i++ {
		iid := graph.NodeID(i)
		if iid == j {
			continue
		}
		phi := s.phi[j][i]
		if len(phi) == 0 {
			continue // unreachable or no demand through i
		}
		// Candidate next hops: physical neighbors. A neighbor is eligible
		// to *receive* flow only if unblocked; blocked neighbors with
		// existing flow may only shed it.
		nbrs := s.g.Neighbors(iid)
		best := math.Inf(1)
		kmin := graph.None
		for _, k := range nbrs {
			if k != j && blocked[k] {
				continue
			}
			d := p.Links[[2]graph.NodeID{iid, k}].Marginal + lam[k]
			if d < best {
				best = d
				kmin = k
			}
		}
		if kmin == graph.None || math.IsInf(best, 1) {
			continue
		}
		tij := flows.NodeTraffic[j][i] / s.opt.MeanPacketBits // packets/s
		movedTotal := 0.0
		// next is φ_ij· after the step: the shares kept, in hop order, with
		// zeros and drained ones left out.
		next := make(alloc.Split, 0, len(phi)+1)
		for _, sh := range phi {
			k, v := sh.Hop, sh.Frac
			if k == kmin {
				next = append(next, sh)
				continue
			}
			if v <= 0 {
				continue
			}
			a := p.Links[[2]graph.NodeID{iid, k}].Marginal + lam[k] - best
			if a <= 0 {
				next = append(next, sh)
				continue // k ties the minimum; leave its share in place
			}
			move := v // no traffic: jump straight to the best hop
			if tij > 0 {
				move = math.Min(v, eta*a/tij)
			}
			movedTotal += move
			if v-move > 1e-15 {
				next = append(next, alloc.Share{Hop: k, Frac: v - move})
			}
		}
		if movedTotal > 0 {
			// kmin gains it all, entering the split at its place in hop order
			// if it was no hop yet.
			at, ok := slices.BinarySearchFunc(next, kmin, func(sh alloc.Share, k graph.NodeID) int { return cmp.Compare(sh.Hop, k) })
			if !ok {
				next = slices.Insert(next, at, alloc.Share{Hop: kmin})
			}
			next[at].Frac += movedTotal
		}
		candidate[j][i] = next
	}
}

// Equalization reports, for each router and destination with traffic, the
// spread between the largest and smallest marginal distance among the next
// hops actually carrying flow. At a true optimum the spread is ~0 for every
// (i, j) (the paper's Eqs. 10-12); tests use this to verify optimality.
func Equalization(g *graph.Graph, flows []topo.Flow, r *Result, meanPacketBits float64) (float64, error) {
	cfg := fluid.Config{Graph: g, Flows: flows, MeanPacketBits: meanPacketBits}
	res, err := fluid.Solve(cfg, r)
	if err != nil {
		return 0, err
	}
	p := fluid.Price(cfg, res)
	worst := 0.0
	for j := range r.Phi {
		jid := graph.NodeID(j)
		lam, err := p.Distances(r, jid, marginal)
		if err != nil {
			return 0, err
		}
		for i := 0; i < g.NumNodes(); i++ {
			if graph.NodeID(i) == jid || res.NodeTraffic[j][i] <= 1e-9 {
				continue
			}
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, sh := range r.Phi[j][i] {
				if sh.Frac <= 1e-9 {
					continue
				}
				d := p.Links[[2]graph.NodeID{graph.NodeID(i), sh.Hop}].Marginal + lam[sh.Hop]
				lo = math.Min(lo, d)
				hi = math.Max(hi, d)
			}
			if hi > lo && hi-lo > worst {
				worst = hi - lo
			}
		}
	}
	return worst, nil
}
