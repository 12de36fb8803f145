// Package alloc implements the traffic-distribution heuristics of Section
// 4.2 of the paper: the routing parameters φ_jk that split a router's
// traffic for destination j over its successor set S_j.
//
// Two heuristics cooperate:
//
//   - IH (initial heuristic, paper Fig. 6) runs whenever S_j is computed
//     afresh — at startup or after a long-term (Tl) route change — and
//     assigns fractions that decrease with the marginal distance through
//     each successor: "the greater the marginal delay through a particular
//     neighbor becomes, the smaller the fraction of traffic forwarded to
//     that neighbor".
//
//   - AH (adjustment heuristic, paper Fig. 7) runs every short-term (Ts)
//     interval while S_j is unchanged and incrementally moves traffic from
//     successors with large marginal delay to the best successor, by an
//     amount proportional to how much worse each successor is.
//
// Both preserve Property 1 of the paper at every instant: φ_jk = 0 off the
// successor set, φ_jk ≥ 0, and Σ_k φ_jk = 1.
//
// φ_j is a Split: one (hop, fraction) pair per hop, hops ascending. The
// heuristics take the marginal distance through each hop as a slice the
// caller fills once per pass, index for index with the hops, and IH writes
// into the storage the Split it replaces already has.
package alloc

import (
	"fmt"
	"math"
	"slices"

	"minroute/internal/graph"
)

// Share is one hop's part of φ_j: the fraction Frac of the traffic for j
// goes to Hop.
type Share struct {
	Hop  graph.NodeID
	Frac float64
}

// Split is φ_j, one destination's routing parameters: one Share per hop,
// hops ascending. Every sum over a Split runs in that order, so its FP
// rounding does not depend on how the Split was built. A Split with no
// positive fraction — IH over successors that are all unusable — sends
// nothing.
type Split []Share

// Weighted reports whether some hop has a positive fraction, i.e. whether s
// sends anything.
func (s Split) Weighted() bool {
	for _, sh := range s {
		if sh.Frac > 0 {
			return true
		}
	}
	return false
}

// Over reports whether s's hops are exactly succ, in order.
func (s Split) Over(succ []graph.NodeID) bool {
	if len(s) != len(succ) {
		return false
	}
	for i, sh := range s {
		if sh.Hop != succ[i] {
			return false
		}
	}
	return true
}

// Ascending reports whether s's hops strictly ascend, as a Split's must.
func (s Split) Ascending() bool {
	for i := 1; i < len(s); i++ {
		if s[i].Hop <= s[i-1].Hop {
			return false
		}
	}
	return true
}

// usable reports whether a successor at marginal distance d may carry
// traffic under IH.
func usable(d float64) bool { return !math.IsInf(d, 1) && d >= 0 }

// IH implements heuristic IH. Given the successor set (ascending by ID, as
// MPDA maintains it) and dist[i], the marginal distance through succ[i], it
// returns fresh routing parameters over succ, written into dst's storage:
//
//	|S| = 1: φ_k = 1
//	|S| > 1: φ_k = (1 − (D_jk+l_k) / Σ_m (D_jm+l_m)) / (|S| − 1)
//
// where S is the usable successors. A successor with infinite marginal
// distance receives zero; with none usable the result has no weight.
func IH(dst Split, succ []graph.NodeID, dist []float64) Split {
	phi := dst[:0]
	n, total := 0, 0.0
	for i, k := range succ {
		phi = append(phi, Share{Hop: k})
		if d := dist[i]; usable(d) {
			n++
			total += d
		}
	}
	if n == 0 {
		return phi
	}
	if n == 1 || total <= 0 {
		// One usable successor takes everything; with every marginal
		// distance zero, the usable ones split evenly.
		for i := range phi {
			if usable(dist[i]) {
				phi[i].Frac = 1 / float64(n)
			}
		}
		return phi
	}
	denom := float64(n - 1)
	for i := range phi {
		if d := dist[i]; usable(d) {
			phi[i].Frac = (1 - d/total) / denom
		}
	}
	normalize(phi)
	return phi
}

// best returns the index of the hop with the least marginal distance
// (ties → lowest ID) and that distance; -1 when every distance is +Inf.
func best(dist []float64) (int, float64) {
	i0, dmin := -1, math.Inf(1)
	for i, d := range dist {
		if d < dmin {
			i0, dmin = i, d
		}
	}
	return i0, dmin
}

// AH implements heuristic AH, stepping phi in place; dist[i] is the
// marginal distance through phi[i].Hop:
//
//	D_min = min_k (D_jk + l_k), achieved by k0 (ties → lowest ID)
//	a_k   = (D_jk + l_k) − D_min
//	Δ     = min{ φ_k / a_k : k ∈ S, a_k ≠ 0 }
//	φ_k  −= Δ·a_k   for k ≠ k0
//	φ_k0 += Δ·Σ_q a_q
//
// Traffic moves toward the successor with the least marginal delay, each
// donor losing in proportion to how much worse it is. The successor with
// the worst φ/a ratio is drained completely, all others partially; repeated
// applications converge toward the perfect-load-balancing conditions
// (paper Eqs. 10-12). Successors with infinite marginal distance donate all
// of their traffic. A set with fewer than two usable successors is left
// unchanged.
func AH(phi Split, dist []float64) {
	if len(phi) < 2 {
		return
	}
	dist = dist[:len(phi)]
	i0, dmin := best(dist)
	if i0 < 0 {
		return
	}
	// Δ = min φ_k/a_k over successors with a_k ≠ 0. Infinite-distance
	// successors get an effectively infinite a, so their ratio is 0 and
	// they are drained completely, which is the sensible limit.
	delta := math.Inf(1)
	anyDonor := false
	for i, d := range dist {
		a := d - dmin
		if a == 0 {
			continue
		}
		anyDonor = true
		if math.IsInf(a, 1) {
			delta = 0
			continue
		}
		if r := phi[i].Frac / a; r < delta {
			delta = r
		}
	}
	if !anyDonor {
		return // perfect balance already: all marginal distances equal
	}
	moved := 0.0
	for i, d := range dist {
		if i == i0 {
			continue
		}
		a := d - dmin
		var give float64
		if math.IsInf(a, 1) {
			give = phi[i].Frac // unusable successor surrenders everything
		} else {
			give = delta * a
		}
		if give > phi[i].Frac {
			give = phi[i].Frac
		}
		phi[i].Frac -= give
		moved += give
	}
	phi[i0].Frac += moved
	normalize(phi)
}

// AdjustDamped is the production variant of heuristic AH used by the
// simulated routers, stepping phi in place over dist as AH does. The
// literal rule of Fig. 7 computes Δ = min{φ_k/a_k} and therefore always
// drains the binding donor completely — with two successors that is a full
// bang-bang swing every Ts regardless of how small the imbalance is, which
// oscillates badly against real queues. The paper describes the intent as
// "the amount of traffic moved away from a link is proportional to how
// large the marginal delay of the link is compared to the best successor
// link"; AdjustDamped implements exactly that:
//
//	rel_k   = a_k / D_min                     (relative excess)
//	move_k  = φ_k · β · rel_k / (1 + rel_k)
//
// where a_k is the excess marginal distance over the best successor and
// D_min the best successor's marginal distance. The move fraction grows
// with the imbalance but saturates at β, so no donor is ever drained in
// one tick — with measurement lag, full drains make coupled routers
// bang-bang between paths (we observed exactly this with the literal
// rule). Moves vanish smoothly as the imbalance vanishes, so the
// allocation converges to the equalization conditions (Eqs. 10-12)
// instead of orbiting them. Property 1 is preserved for any β in (0, 1].
func AdjustDamped(phi Split, dist []float64, beta float64) {
	if len(phi) < 2 || beta <= 0 {
		return
	}
	dist = dist[:len(phi)]
	i0, dmin := best(dist)
	if i0 < 0 || dmin <= 0 {
		return
	}
	moved := 0.0
	for i, d := range dist {
		if i == i0 {
			continue
		}
		var give float64
		if math.IsInf(d, 1) {
			give = phi[i].Frac // unusable successor surrenders everything
		} else {
			rel := (d - dmin) / dmin
			give = phi[i].Frac * beta * rel / (1 + rel)
		}
		if give <= 0 {
			continue
		}
		phi[i].Frac -= give
		moved += give
	}
	if moved == 0 {
		return
	}
	phi[i0].Frac += moved
	normalize(phi)
}

// Spread summarizes how evenly p splits traffic as 1 − max φ: 0 means
// single-path, and values approaching 1 − 1/|S| mean a near-uniform split.
// It is the scalar the telemetry layer attaches to allocation events.
func Spread(p Split) float64 {
	maxPhi := 0.0
	for _, sh := range p {
		if sh.Frac > maxPhi {
			maxPhi = sh.Frac
		}
	}
	if maxPhi == 0 {
		return 0
	}
	return 1 - maxPhi
}

// Single returns all traffic on one successor (SP forwarding).
func Single(k graph.NodeID) Split { return Split{{Hop: k, Frac: 1}} }

// Validate checks Property 1 of the paper against the successor set:
// hops ascending, non-negative fractions, support within succ, and a unit
// sum. It returns nil for an empty Split with an empty successor set.
func Validate(phi Split, succ []graph.NodeID) error {
	if len(phi) == 0 {
		if len(succ) == 0 {
			return nil
		}
		return fmt.Errorf("alloc: empty parameters for %d successors", len(succ))
	}
	if !phi.Ascending() {
		return fmt.Errorf("alloc: hops of %v do not ascend", phi)
	}
	sum := 0.0
	for _, sh := range phi {
		if sh.Frac < -1e-12 {
			return fmt.Errorf("alloc: negative fraction %v for successor %d", sh.Frac, sh.Hop)
		}
		if sh.Frac > 1e-12 && !slices.Contains(succ, sh.Hop) {
			return fmt.Errorf("alloc: fraction %v assigned to non-successor %d", sh.Frac, sh.Hop)
		}
		sum += sh.Frac
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("alloc: fractions sum to %v, want 1", sum)
	}
	return nil
}

// normalize clamps FP dust and rescales the fractions to sum exactly to 1,
// in hop order, so the FP rounding — and therefore the whole simulation —
// is reproducible run-to-run.
func normalize(phi Split) {
	sum := 0.0
	for i := range phi {
		if phi[i].Frac < 0 {
			phi[i].Frac = 0
		}
		sum += phi[i].Frac
	}
	if sum <= 0 {
		// Degenerate: spread evenly rather than sending nothing.
		for i := range phi {
			phi[i].Frac = 1 / float64(len(phi))
		}
		return
	}
	for i := range phi {
		phi[i].Frac /= sum
	}
}

// Params maps successor → fraction of traffic: φ_j as a map, with Initial,
// Adjust and Keys the map forms of IH, AH and a Split's hops. They remain
// only for cmd/mdrbench/probes.go, whose alloc probes time them, and
// convert to and from a Split around the one implementation. ROADMAP item
// 2i retargets those probes to Split and deletes all four.
type Params map[graph.NodeID]float64

// Keys returns the successors p covers in ascending order.
func (p Params) Keys() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(p))
	//lint:maporder-ok keys are collected and sorted ascending before any use
	for k := range p {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// distances evaluates dist through each successor, in order.
func distances(succ []graph.NodeID, dist func(k graph.NodeID) float64) []float64 {
	d := make([]float64, len(succ))
	for i, k := range succ {
		d[i] = dist(k)
	}
	return d
}

// Initial is IH in map form (see Params): nil when no successor is usable.
func Initial(succ []graph.NodeID, dist func(k graph.NodeID) float64) Params {
	s := IH(nil, succ, distances(succ, dist))
	if !s.Weighted() {
		return nil
	}
	phi := make(Params, len(s))
	for _, sh := range s {
		phi[sh.Hop] = sh.Frac
	}
	return phi
}

// Adjust is AH in map form (see Params), stepping phi in place; phi must
// be keyed by succ, as Initial returns it.
func Adjust(phi Params, succ []graph.NodeID, dist func(k graph.NodeID) float64) {
	if len(phi) == 0 {
		return
	}
	s := make(Split, len(succ))
	for i, k := range succ {
		s[i] = Share{Hop: k, Frac: phi[k]}
	}
	AH(s, distances(succ, dist))
	for _, sh := range s {
		phi[sh.Hop] = sh.Frac
	}
}
