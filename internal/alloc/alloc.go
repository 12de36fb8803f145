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
package alloc

import (
	"fmt"
	"math"
	"slices"

	"minroute/internal/graph"
)

// DistFunc returns the marginal distance through successor k, i.e.
// D_jk + l_ik. Infinite distances mark successors that are momentarily
// unusable.
type DistFunc func(k graph.NodeID) float64

// Params maps successor → fraction of traffic. A nil Params sends nothing.
type Params map[graph.NodeID]float64

// Clone deep-copies the parameters.
func (p Params) Clone() Params {
	c := make(Params, len(p))
	for k, v := range p {
		c[k] = v
	}
	return c
}

// Keys returns the successors with non-zero allocation potential in
// ascending order (deterministic iteration helper).
func (p Params) Keys() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(p))
	//lint:maporder-ok keys are collected and sorted ascending before any use
	for k := range p {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Initial implements heuristic IH. Given the successor set (ascending by
// ID, as MPDA maintains it) and the marginal distances through each
// successor, it returns fresh routing parameters:
//
//	|S| = 1: φ_k = 1
//	|S| > 1: φ_k = (1 − (D_jk+l_k) / Σ_m (D_jm+l_m)) / (|S| − 1)
//
// Successors with infinite marginal distance receive zero. An empty
// successor set yields nil.
func Initial(succ []graph.NodeID, dist DistFunc) Params {
	usable := make([]graph.NodeID, 0, len(succ))
	total := 0.0
	for _, k := range succ {
		if d := dist(k); !math.IsInf(d, 1) && d >= 0 {
			usable = append(usable, k)
			total += dist(k)
		}
	}
	if len(usable) == 0 {
		return nil
	}
	phi := make(Params, len(succ))
	for _, k := range succ {
		phi[k] = 0
	}
	if len(usable) == 1 {
		phi[usable[0]] = 1
		return phi
	}
	if total <= 0 {
		// All marginal distances are zero: split evenly.
		for _, k := range usable {
			phi[k] = 1 / float64(len(usable))
		}
		return phi
	}
	denom := float64(len(usable) - 1)
	for _, k := range usable {
		phi[k] = (1 - dist(k)/total) / denom
	}
	normalize(phi)
	return phi
}

// Adjust implements heuristic AH, mutating phi in place:
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
func Adjust(phi Params, succ []graph.NodeID, dist DistFunc) {
	if len(succ) < 2 || len(phi) == 0 {
		return
	}
	dmin := math.Inf(1)
	k0 := graph.None
	for _, k := range succ {
		if d := dist(k); d < dmin {
			dmin = d
			k0 = k
		}
	}
	if k0 == graph.None || math.IsInf(dmin, 1) {
		return
	}
	// Δ = min φ_k/a_k over successors with a_k ≠ 0. Infinite-distance
	// successors get an effectively infinite a, so their ratio is 0 and
	// they are drained completely, which is the sensible limit.
	delta := math.Inf(1)
	anyDonor := false
	for _, k := range succ {
		a := dist(k) - dmin
		if a == 0 {
			continue
		}
		anyDonor = true
		if math.IsInf(a, 1) {
			delta = 0
			continue
		}
		if r := phi[k] / a; r < delta {
			delta = r
		}
	}
	if !anyDonor {
		return // perfect balance already: all marginal distances equal
	}
	moved := 0.0
	for _, k := range succ {
		if k == k0 {
			continue
		}
		a := dist(k) - dmin
		var give float64
		if math.IsInf(a, 1) {
			give = phi[k] // unusable successor surrenders everything
		} else {
			give = delta * a
		}
		if give > phi[k] {
			give = phi[k]
		}
		phi[k] -= give
		moved += give
	}
	phi[k0] += moved
	normalize(phi)
}

// AdjustDamped is the production variant of heuristic AH used by the
// simulated routers. The literal rule of Fig. 7 computes
// Δ = min{φ_k/a_k} and therefore always drains the binding donor
// completely — with two successors that is a full bang-bang swing every Ts
// regardless of how small the imbalance is, which oscillates badly against
// real queues. The paper describes the intent as "the amount of traffic
// moved away from a link is proportional to how large the marginal delay
// of the link is compared to the best successor link"; AdjustDamped
// implements exactly that:
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
func AdjustDamped(phi Params, succ []graph.NodeID, dist DistFunc, beta float64) {
	if len(succ) < 2 || len(phi) == 0 || beta <= 0 {
		return
	}
	dmin := math.Inf(1)
	k0 := graph.None
	for _, k := range succ {
		if d := dist(k); d < dmin {
			dmin = d
			k0 = k
		}
	}
	if k0 == graph.None || math.IsInf(dmin, 1) || dmin <= 0 {
		return
	}
	moved := 0.0
	for _, k := range succ {
		if k == k0 {
			continue
		}
		d := dist(k)
		var give float64
		if math.IsInf(d, 1) {
			give = phi[k] // unusable successor surrenders everything
		} else {
			rel := (d - dmin) / dmin
			give = phi[k] * beta * rel / (1 + rel)
		}
		if give <= 0 {
			continue
		}
		phi[k] -= give
		moved += give
	}
	if moved == 0 {
		return
	}
	phi[k0] += moved
	normalize(phi)
}

// Spread summarizes how evenly routing parameters split traffic as 1 − max
// φ: 0 means single-path, and values approaching 1 − 1/|S| mean a
// near-uniform split. It is the scalar the telemetry layer attaches to
// allocation events.
func Spread(p Params) float64 {
	maxPhi := 0.0
	//lint:maporder-ok max over values is iteration-order independent
	for _, v := range p {
		if v > maxPhi {
			maxPhi = v
		}
	}
	if maxPhi == 0 {
		return 0
	}
	return 1 - maxPhi
}

// Uniform returns equal fractions over the successor set; used as a
// baseline in ablation benchmarks.
func Uniform(succ []graph.NodeID) Params {
	if len(succ) == 0 {
		return nil
	}
	phi := make(Params, len(succ))
	for _, k := range succ {
		phi[k] = 1 / float64(len(succ))
	}
	return phi
}

// Single returns all traffic on one successor (SP forwarding).
func Single(k graph.NodeID) Params { return Params{k: 1} }

// Validate checks Property 1 of the paper against the successor set:
// non-negative fractions, support within succ, and a unit sum. It returns
// nil for an empty Params with an empty successor set.
func Validate(phi Params, succ []graph.NodeID) error {
	if len(phi) == 0 {
		if len(succ) == 0 {
			return nil
		}
		return fmt.Errorf("alloc: empty parameters for %d successors", len(succ))
	}
	inSet := make(map[graph.NodeID]bool, len(succ))
	for _, k := range succ {
		inSet[k] = true
	}
	// Sorted keys: the first reported violation and the FP rounding of the
	// sum must not depend on map iteration order.
	sum := 0.0
	for _, k := range phi.Keys() {
		v := phi[k]
		if v < -1e-12 {
			return fmt.Errorf("alloc: negative fraction %v for successor %d", v, k)
		}
		if v > 1e-12 && !inSet[k] {
			return fmt.Errorf("alloc: fraction %v assigned to non-successor %d", v, k)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("alloc: fractions sum to %v, want 1", sum)
	}
	return nil
}

// normalize clamps FP dust and rescales the fractions to sum exactly to 1.
// Iteration is in sorted key order so the FP rounding — and therefore the
// whole simulation — is reproducible run-to-run.
func normalize(phi Params) {
	keys := phi.Keys()
	sum := 0.0
	for _, k := range keys {
		if phi[k] < 0 {
			phi[k] = 0
		}
		sum += phi[k]
	}
	if sum <= 0 {
		// Degenerate: spread evenly rather than sending nothing.
		for _, k := range keys {
			phi[k] = 1 / float64(len(phi))
		}
		return
	}
	for _, k := range keys {
		phi[k] /= sum
	}
}
