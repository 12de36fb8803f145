package pda

import (
	"math"
	"testing"

	"minroute/internal/dijkstra"
	"minroute/internal/graph"
	"minroute/internal/lsu"
	"minroute/internal/rng"
)

// sameDistances fails unless D_·k is bit-for-bit what a fresh Dijkstra over
// T_k from k computes.
func sameDistances(t *testing.T, tb *Tables, k graph.NodeID, what string) {
	t.Helper()
	want := dijkstra.Run(tb.NeighborTopo(k), k).Dist
	for j, w := range want {
		if got := tb.NbrDist(graph.NodeID(j), k); math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("%s: D_%d,%d = %v (%#x), Dijkstra %v (%#x)\nT_k = %v",
				what, j, k, got, math.Float64bits(got), w, math.Float64bits(w), tb.NeighborTopo(k))
		}
	}
}

// TestNeighborDistancesMatchDijkstra is the tree walk's proof obligation:
// whatever link set a neighbor has reported, the D_jk ApplyLSU leaves are
// the bits Dijkstra would compute. The shapes are the ones the walk treats
// differently: exact trees (its fast path, which must then have examined
// each link exactly once), trees with one to many extra links (the
// fallback), costs from {0, 1, 2} so zero-cost links and equal-cost ties are
// everywhere, links no path from k reaches, infinite costs, and the state
// between the two halves of a diff — the new tree's links added, the old
// tree's not yet deleted.
func TestNeighborDistancesMatchDijkstra(t *testing.T) {
	const n, k = 24, graph.NodeID(5)
	for seed := uint64(1); seed <= 200; seed++ {
		r := rng.New(seed)
		cost := func() float64 {
			if r.Intn(40) == 0 {
				return math.Inf(1)
			}
			return float64(r.Intn(3))
		}
		// randomTree returns a tree rooted at k over a random subset of the
		// nodes, as add entries.
		randomTree := func() []lsu.Entry {
			in := []graph.NodeID{k}
			var es []lsu.Entry
			for _, v := range r.Perm(n) {
				if v := graph.NodeID(v); v != k && r.Intn(4) > 0 {
					es = append(es, lsu.Entry{Op: lsu.OpAdd, Head: in[r.Intn(len(in))], Tail: v, Cost: cost()})
					in = append(in, v)
				}
			}
			return es
		}
		tb := NewTables(0, n)
		tb.SetAdjacent(k, 1)

		tree := randomTree()
		before := tb.walked
		tb.ApplyLSU(k, tree)
		sameDistances(t, tb, k, "exact tree")
		finite := true
		for _, e := range tree {
			finite = finite && !math.IsInf(e.Cost, 1)
		}
		if got := tb.walked - before; finite && got != len(tree) {
			t.Fatalf("seed %d: the walk examined %d links of a %d-link tree", seed, got, len(tree))
		}

		// Links nothing reaches: between nodes the tree left out.
		var out []graph.NodeID
		for v := graph.NodeID(0); v < n; v++ {
			if math.IsInf(tb.NbrDist(v, k), 1) {
				out = append(out, v)
			}
		}
		if len(out) > 0 {
			var es []lsu.Entry
			for i := 0; i < 6; i++ {
				es = append(es, lsu.Entry{Op: lsu.OpAdd, Head: out[r.Intn(len(out))], Tail: graph.NodeID(r.Intn(n)), Cost: cost()})
			}
			tb.ApplyLSU(k, es)
			sameDistances(t, tb, k, "tree plus unreachable links")
		}

		// The first half of a diff toward another tree, then the second.
		next := randomTree()
		tb.ApplyLSU(k, next)
		sameDistances(t, tb, k, "new tree added, old tree not yet deleted")
		var dels []lsu.Entry
		for _, e := range tree {
			keep := false
			for _, ne := range next {
				keep = keep || (ne.Head == e.Head && ne.Tail == e.Tail)
			}
			if !keep {
				dels = append(dels, lsu.Entry{Op: lsu.OpDelete, Head: e.Head, Tail: e.Tail})
			}
		}
		tb.ApplyLSU(k, dels)
		sameDistances(t, tb, k, "old tree deleted")

		// Extra links, one more per round, up to a dense table.
		for extra := 1; extra <= 64; extra *= 2 {
			var es []lsu.Entry
			for i := 0; i < extra; i++ {
				es = append(es, lsu.Entry{Op: lsu.OpAdd, Head: graph.NodeID(r.Intn(n)), Tail: graph.NodeID(r.Intn(n)), Cost: cost()})
			}
			tb.ApplyLSU(k, es)
			sameDistances(t, tb, k, "tree plus extra links")
		}
	}
}

// TestTreeWalkGivesWayWithinNodeCount: a live neighbor can report any link
// set, and the walk must not turn one into extra work per LSU. Every step
// that does not end the walk labels a node no step labelled before, so
// whatever the table — every ordered pair over 160 nodes, or a 160-node
// chain whose last node links back into it — Dijkstra takes over after at
// most n links examined.
func TestTreeWalkGivesWayWithinNodeCount(t *testing.T) {
	const n, k = 160, graph.NodeID(0)
	var dense, chain []lsu.Entry
	for h := graph.NodeID(0); h < n; h++ {
		for tl := graph.NodeID(0); tl < n; tl++ {
			if h != tl {
				dense = append(dense, lsu.Entry{Op: lsu.OpAdd, Head: h, Tail: tl, Cost: 1 + float64((h*7+tl)%5)})
			}
		}
		if h+1 < n {
			chain = append(chain, lsu.Entry{Op: lsu.OpAdd, Head: h, Tail: h + 1, Cost: 1})
		}
	}
	chain = append(chain, lsu.Entry{Op: lsu.OpAdd, Head: n - 1, Tail: n / 2, Cost: 1})
	for _, c := range []struct {
		name    string
		entries []lsu.Entry
	}{{"dense", dense}, {"chain with a back-link", chain}} {
		tb := NewTables(n-1, n)
		tb.SetAdjacent(k, 1)
		tb.ApplyLSU(k, c.entries)
		sameDistances(t, tb, k, c.name)
		if tb.walked > n {
			t.Errorf("%s: the walk examined %d links of %d before giving way, want at most %d",
				c.name, tb.walked, len(c.entries), n)
		}
	}
}
