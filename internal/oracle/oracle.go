// Package oracle holds the always-on invariant checkers the chaos harness
// hooks into the simulation event loops. Each checker is a pure function
// over read-only views of router/network state, returning a descriptive
// error on violation; a runner records each run and each error in a Log,
// as Violations with event coordinates, so a failing run can be located
// and replayed.
//
// The invariants come straight from the paper:
//
//   - Loop-freedom (Theorems 1 and 3): the union successor graph for every
//     destination is acyclic at every instant, and successor sets respect
//     the feasible-distance ordering FD_j^k < FD_j^i.
//   - Property 1 of the allocation heuristics: routing parameters φ_jk form
//     a simplex over the successor set after every IH/AH step.
//   - Traffic conservation: every offered packet is, at any event boundary,
//     exactly one of delivered, dropped (with a counted reason), lost to a
//     link/node failure, or still in flight.
//   - Convergence (Theorem 4): once the control plane quiesces, distances
//     equal the true shortest paths and S_ij = {k : D_kj < D_ij}.
//   - Adjacency agreement (the Section 2 link model): a router believes an
//     adjacent link up only while that link can carry its LSUs.
package oracle

import (
	"fmt"
	"math"
	"sort"

	"minroute/internal/alloc"
	"minroute/internal/dijkstra"
	"minroute/internal/graph"
	"minroute/internal/lfi"
	"minroute/internal/numeric"
)

// Check names, used as Violation.Check and as the Log's count keys.
const (
	CheckLoopFreeName     = "loop-free"
	CheckSimplexName      = "phi-simplex"
	CheckConservationName = "conservation"
	CheckQuiescenceName   = "quiescence"
	CheckConvergenceName  = "convergence"
	CheckAdjacencyName    = "adjacency"
)

// Violation is one recorded invariant breach.
type Violation struct {
	// Check is the name of the oracle that fired.
	Check string
	// Detail is the checker's error text.
	Detail string
	// Event locates the breach: DES events fired, or protonet delivery
	// attempts, at the moment the oracle ran.
	Event int64
	// Time is the simulation clock (always 0 for protocol-level runs, which
	// have no clock).
	Time float64
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] event %d t=%.6f: %s", v.Check, v.Event, v.Time, v.Detail)
}

// Log accumulates per-check run counts and violations across a run.
type Log struct {
	Violations []Violation
	counts     map[string]int64
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{counts: make(map[string]int64)} }

// Record counts one execution of the named check.
func (l *Log) Record(check string) { l.counts[check]++ }

// Violate records a breach of the named check.
func (l *Log) Violate(check, detail string, event int64, t float64) {
	l.Violations = append(l.Violations, Violation{Check: check, Detail: detail, Event: event, Time: t})
}

// Failed reports whether any violation has been recorded.
func (l *Log) Failed() bool { return len(l.Violations) > 0 }

// CheckCount pairs a check name with how many times it ran.
type CheckCount struct {
	Check string
	Count int64
}

// Counts returns the per-check execution counts in name order.
func (l *Log) Counts() []CheckCount {
	out := make([]CheckCount, 0, len(l.counts))
	//lint:maporder-ok entries are collected and sorted by name before use
	for name, c := range l.counts {
		out = append(out, CheckCount{Check: name, Count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Check < out[j].Check })
	return out
}

// LoopFree verifies Theorem 1/3: the successor graph of every destination
// is acyclic and every successor strictly decreases feasible distance.
// views must contain live routers only (a crashed router forwards nothing).
func LoopFree(n int, views map[graph.NodeID]lfi.RouterView) error {
	if err := lfi.CheckAllDestinations(n, views); err != nil {
		return err
	}
	return lfi.CheckFDOrdering(n, views)
}

// Simplex verifies Property 1 for one (router, destination) pair after an
// IH/AH step: φ's hops ascending, its fractions non-negative, supported on
// the successor set and summing to one. An empty φ is legal even with
// successors present — there is none while IH finds every marginal
// distance infinite — so only non-empty parameter vectors are validated.
func Simplex(phi alloc.Split, succ []graph.NodeID) error {
	if len(phi) == 0 {
		return nil
	}
	return alloc.Validate(phi, succ)
}

// Ledger is an instantaneous packet census of the network.
type Ledger struct {
	// Offered counts packets generated by traffic sources.
	Offered int64
	// Delivered counts packets that reached their destination.
	Delivered int64
	// RouterDrops counts packets dropped by routers with a recorded reason
	// (no route, hop limit, queue overflow, node down).
	RouterDrops int64
	// PortLost counts packets that ports owned but lost to link failures.
	PortLost int64
	// InFlight counts packets currently owned by ports (queued,
	// transmitting, or propagating).
	InFlight int64
}

// Conservation verifies that the ledger balances: offered equals delivered
// plus every accounted loss plus everything still travelling. A leak (a
// packet freed without being counted) or double-count breaks the balance.
func Conservation(led Ledger) error {
	accounted := led.Delivered + led.RouterDrops + led.PortLost + led.InFlight
	if accounted != led.Offered {
		return fmt.Errorf(
			"oracle: packet ledger unbalanced: offered %d != delivered %d + dropped %d + lost %d + in-flight %d (= %d)",
			led.Offered, led.Delivered, led.RouterDrops, led.PortLost, led.InFlight, accounted)
	}
	return nil
}

// AdjacencyView is the slice of protocol state the adjacency oracle reads:
// the neighbors a router currently holds an adjacent-link cost for.
// pda.Tables satisfies it.
type AdjacencyView interface {
	ID() graph.NodeID
	Neighbors() []graph.NodeID
}

// Adjacency verifies that every live router's adjacent-link table agrees
// with the harness's effective link state (linkUp): no router holds a cost
// for a neighbor that is crashed or across an explicitly failed link — it
// would send LSUs that cannot arrive and sit ACTIVE waiting for the ACK.
// Both harnesses notify link events synchronously, so this holds after
// every fault action. routers must contain live routers only.
func Adjacency(routers []AdjacencyView, linkUp func(a, b graph.NodeID) bool) error {
	for _, r := range routers {
		for _, k := range r.Neighbors() {
			if !linkUp(r.ID(), k) {
				return fmt.Errorf("oracle: router %d holds an adjacent cost for %d, but link %d-%d is down", r.ID(), k, r.ID(), k)
			}
		}
	}
	return nil
}

// ActiveView is the slice of protocol state the quiescence oracle reads.
// mpda.Router satisfies it.
type ActiveView interface {
	ID() graph.NodeID
	Active() bool
}

// ProtocolView adds the distance and successor tables the convergence
// oracle compares against ground truth. mpda.Router satisfies it.
type ProtocolView interface {
	ActiveView
	Dist(j graph.NodeID) float64
	Successors(j graph.NodeID) []graph.NodeID
}

// Quiescent verifies that no router is stuck in the ACTIVE phase once the
// network has no messages pending: an ACTIVE router with nothing in flight
// is waiting for an ACK that can never arrive, a liveness bug in the
// reliable-delivery machinery.
func Quiescent(routers map[graph.NodeID]ActiveView, pending int) error {
	if pending > 0 {
		return nil
	}
	ids := make([]graph.NodeID, 0, len(routers))
	//lint:maporder-ok keys are collected and sorted before the scan
	for id := range routers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if routers[id].Active() {
			return fmt.Errorf("oracle: router %d stuck ACTIVE with no messages pending", id)
		}
	}
	return nil
}

// Convergence verifies Theorem 4 against Dijkstra ground truth on the
// current topology: every router's distances match the true shortest paths
// and S_ij = {k : D_kj < D_ij} (strictly closer neighbors, per
// numeric.Closer). Call it only at true quiescence — during convergence the
// tables legitimately disagree with the ground truth.
func Convergence(g *graph.Graph, cost func(l *graph.Link) float64, routers map[graph.NodeID]ProtocolView) error {
	view := dijkstra.GraphView{G: g, Cost: cost}
	truth := make(map[graph.NodeID]*dijkstra.Result, g.NumNodes())
	for _, id := range g.Nodes() {
		truth[id] = dijkstra.Run(view, id)
	}
	for _, i := range g.Nodes() {
		r, ok := routers[i]
		if !ok {
			continue // crashed router: no live tables to audit
		}
		for j := 0; j < g.NumNodes(); j++ {
			jid := graph.NodeID(j)
			got, want := r.Dist(jid), truth[i].Dist[j]
			if math.IsInf(got, 1) != math.IsInf(want, 1) || (!math.IsInf(want, 1) && math.Abs(got-want) > 1e-9) {
				return fmt.Errorf("oracle: router %d: D_%d = %v, want %v", i, j, got, want)
			}
			if jid == i {
				continue
			}
			want2 := make([]graph.NodeID, 0, 4)
			for _, k := range g.Neighbors(i) {
				if _, live := routers[k]; !live {
					continue
				}
				if numeric.Closer(truth[k].Dist[j], truth[i].Dist[j]) {
					want2 = append(want2, k)
				}
			}
			got2 := r.Successors(jid)
			if !sameIDs(got2, want2) {
				return fmt.Errorf("oracle: router %d dest %d: S = %v, want %v", i, j, got2, want2)
			}
		}
	}
	return nil
}

func sameIDs(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
