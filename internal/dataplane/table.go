// Package dataplane implements the live forwarding plane: per-node
// weighted-multipath data-packet forwarding driven by the phi routing
// parameters the control plane computes. The control plane (internal/node
// wrapping the MPDA router) publishes immutable forwarding-table
// snapshots; the forwarder looks packets up lock-free and relays them hop
// by hop over an unreliable transport.Datagram, splitting traffic across
// the successor set in proportion to phi — the approximation to
// minimum-delay routing the paper reduces to per-hop routing-parameter
// adjustment.
//
// Flows stick to paths. A per-packet weighted coin flip would match phi
// exactly in expectation but reorder every flow; instead each destination
// owns a fixed ring of consistent-hash buckets apportioned to next hops
// by weight, and a flow's 5-tuple-style hash picks its bucket. While the
// weights hold, a flow's path holds. When the weights move, buckets are
// reassigned minimally: only the fraction of the ring that the weight
// change itself demands switches hops, so only that fraction of flows
// migrates — the rest never notice.
package dataplane

import (
	"fmt"
	"sort"

	"minroute/internal/graph"
)

// NumBuckets is the ring size per destination. 256 buckets bound the
// apportionment error of any bucketed split at 1/256 ≈ 0.4% absolute per
// next hop, inside the 2% gate the cross-validation holds the live plane
// to, while keeping a table snapshot for an n-node mesh at n*256 bytes of
// bucket state.
const NumBuckets = 256

// Entry describes the desired split for one destination: the successor
// set and its phi weights, in the form alloc hands φ_j over (Property 1,
// which alloc.Validate checks after every IH/AH step): Hops ascending, one
// weight per hop, and Weights summing to 1. Compile relies on that form
// and does not check it again.
type Entry struct {
	Dst     graph.NodeID
	Hops    []graph.NodeID
	Weights []float64
}

// route is the compiled per-destination state inside a Table.
type route struct {
	hops    []graph.NodeID // successor set, ascending
	weights []float64      // phi per hop, same order, scaled to sum 1
	buckets []uint8        // bucket -> index into hops
}

// Table is an immutable compiled forwarding snapshot. Build tables with
// Compile and swap them atomically; never mutate one in place.
type Table struct {
	routes []*route // indexed by destination; nil where there is no route
}

// Compile builds a Table from per-destination entries, reusing prev's
// bucket assignments where possible so that flows only migrate when the
// weights actually moved (minimal disruption). prev may be nil.
//
// Apportionment is largest-remainder: each hop gets floor(weight*256)
// buckets, and the leftovers go to the largest fractional remainders
// (ties to the lower hop ID), so the bucket shares match phi to within
// 1/NumBuckets. Reassignment is two-pass: buckets whose current hop is
// still present and still under its new quota keep their hop; only the
// freed surplus moves, scanned in ascending bucket order so the result is
// a pure function of (entries, prev) — independent of map order,
// scheduling, and GOMAXPROCS.
func Compile(entries []Entry, prev *Table) *Table {
	n := 0
	for _, e := range entries {
		if len(e.Hops) > 0 {
			n = max(n, int(e.Dst)+1)
		}
	}
	t := &Table{routes: make([]*route, n)}
	for _, e := range entries {
		if len(e.Hops) == 0 {
			continue
		}
		r := &route{
			hops:    append([]graph.NodeID(nil), e.Hops...),
			weights: append([]float64(nil), e.Weights...),
		}
		normalize(r.weights)
		r.buckets = assignBuckets(r.hops, quotas(r.weights), prev.routeTo(e.Dst))
		t.routes[e.Dst] = r
	}
	return t
}

// routeTo returns dst's compiled route, or nil when t (which may be nil)
// has none. A packet's destination arrives from the network, so one
// outside the table is simply unrouted.
func (t *Table) routeTo(dst graph.NodeID) *route {
	if t == nil || uint(dst) >= uint(len(t.routes)) {
		return nil
	}
	return t.routes[dst]
}

// normalize divides weights by their sum: alloc hands over a φ that sums
// to 1, and the division absorbs its floating-point drift before the
// quotas floor it.
func normalize(ws []float64) {
	sum := 0.0
	for _, w := range ws {
		sum += w
	}
	for i := range ws {
		ws[i] /= sum
	}
}

// quotas apportions NumBuckets buckets to hops by largest remainder.
func quotas(ws []float64) []int {
	q := make([]int, len(ws))
	type frac struct {
		i int
		f float64
	}
	rem := make([]frac, len(ws))
	used := 0
	for i, w := range ws {
		exact := w * NumBuckets
		q[i] = int(exact)
		rem[i] = frac{i, exact - float64(q[i])}
		used += q[i]
	}
	// Hand leftover buckets to the largest remainders; tie → lower index
	// (lower hop ID, since hops are sorted) for determinism.
	sort.Slice(rem, func(a, b int) bool {
		if rem[a].f != rem[b].f {
			return rem[a].f > rem[b].f
		}
		return rem[a].i < rem[b].i
	})
	for k := 0; used < NumBuckets; k++ {
		q[rem[k%len(rem)].i]++
		used++
	}
	return q
}

// assignBuckets fills the bucket ring against quota, keeping old
// assignments wherever the bucket's previous hop survives under its new
// quota. old may be nil (fresh route): buckets then fill in hop order.
func assignBuckets(hops []graph.NodeID, quota []int, old *route) []uint8 {
	b := make([]uint8, NumBuckets)
	fill := make([]int, len(hops))
	const unset = 0xFF
	for i := range b {
		b[i] = unset
	}
	if old != nil {
		// Pass 1: keep buckets whose previous hop is still a successor
		// and still owes buckets under the new quota.
		oldIdx := make(map[graph.NodeID]int, len(hops))
		for i, h := range hops {
			oldIdx[h] = i
		}
		for i := 0; i < NumBuckets; i++ {
			if int(old.buckets[i]) >= len(old.hops) {
				continue
			}
			h := old.hops[old.buckets[i]]
			if ni, okh := oldIdx[h]; okh && fill[ni] < quota[ni] {
				b[i] = uint8(ni)
				fill[ni]++
			}
		}
	}
	// Pass 2: hand the remaining buckets to under-quota hops, both sides
	// scanned in ascending order.
	ni := 0
	for i := 0; i < NumBuckets; i++ {
		if b[i] != unset {
			continue
		}
		for fill[ni] >= quota[ni] {
			ni++
		}
		b[i] = uint8(ni)
		fill[ni]++
	}
	return b
}

// Lookup returns the next hop for (dst, flowID), or ok=false when the
// table holds no route to dst.
func (t *Table) Lookup(dst graph.NodeID, flowID uint64) (graph.NodeID, bool) {
	r := t.routeTo(dst)
	if r == nil {
		return 0, false
	}
	return r.hops[r.buckets[flowHash(flowID)%NumBuckets]], true
}

// Route returns the successor set and weights for dst (copies), or
// ok=false. For observability; not on the forwarding path.
func (t *Table) Route(dst graph.NodeID) (hops []graph.NodeID, weights []float64, ok bool) {
	r := t.routeTo(dst)
	if r == nil {
		return nil, nil, false
	}
	return append([]graph.NodeID(nil), r.hops...), append([]float64(nil), r.weights...), true
}

// BucketShares returns, for dst, each successor's share of the bucket
// ring — the realized long-run split a large flow population sees.
func (t *Table) BucketShares(dst graph.NodeID) map[graph.NodeID]float64 {
	r := t.routeTo(dst)
	if r == nil {
		return nil
	}
	counts := make([]int, len(r.hops))
	for _, hi := range r.buckets {
		counts[hi]++
	}
	out := make(map[graph.NodeID]float64, len(r.hops))
	for i, h := range r.hops {
		out[h] = float64(counts[i]) / NumBuckets
	}
	return out
}

// Dests returns the destinations the table routes, ascending.
func (t *Table) Dests() []graph.NodeID {
	var out []graph.NodeID
	for j, r := range t.routes {
		if r != nil {
			out = append(out, graph.NodeID(j))
		}
	}
	return out
}

// Moved counts buckets for dst whose hop differs between t and prev — the
// fraction of flows a table swap migrates. Routes absent from either side
// count as fully moved.
func (t *Table) Moved(prev *Table, dst graph.NodeID) int {
	cur, old := t.routeTo(dst), prev.routeTo(dst)
	if cur == nil || old == nil {
		return NumBuckets
	}
	moved := 0
	for i := 0; i < NumBuckets; i++ {
		if cur.hops[cur.buckets[i]] != old.hops[old.buckets[i]] {
			moved++
		}
	}
	return moved
}

// String renders the table canonically (sorted, fixed precision) for
// debugging and byte-deterministic artifact comparison.
func (t *Table) String() string {
	out := ""
	for _, j := range t.Dests() {
		r := t.routes[j]
		out += fmt.Sprintf("dst %d:", j)
		counts := make([]int, len(r.hops))
		for _, hi := range r.buckets {
			counts[hi]++
		}
		for i, h := range r.hops {
			out += fmt.Sprintf(" %d=%.6f(%d)", h, r.weights[i], counts[i])
		}
		out += "\n"
	}
	return out
}

// flowHash scrambles a flow ID into a bucket index. splitmix64 finalizer:
// cheap, stateless, and avalanche-complete, so sequential flow IDs (the
// traffic generator numbers subflows densely) spread uniformly over the
// ring.
func flowHash(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
