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

// applyChecked applies one LSU from k and fails unless D_·k is then what
// Dijkstra computes and Moved() names exactly the j whose D_jk changed.
func applyChecked(t *testing.T, tb *Tables, k graph.NodeID, entries []lsu.Entry, what string) {
	t.Helper()
	was := make([]float64, tb.NumNodes())
	for j := range was {
		was[j] = tb.NbrDist(graph.NodeID(j), k)
	}
	tb.Moved().Reset()
	tb.ApplyLSU(k, entries)
	sameDistances(t, tb, k, what)
	moved := make([]bool, len(was))
	for _, j := range tb.Moved().List() {
		moved[j] = true
	}
	for j, w := range was {
		changed := math.Float64bits(w) != math.Float64bits(tb.NbrDist(graph.NodeID(j), k))
		if changed != moved[j] {
			t.Fatalf("%s: D_%d,%d %v -> %v, but Moved() has it: %v", what, j, k, w, tb.NbrDist(graph.NodeID(j), k), moved[j])
		}
	}
	tb.Moved().Reset()
}

// paths counts the LSUs each way of bringing D_·k up to date answered.
type paths struct{ relabels, walks, runs int }

func pathsOf(tb *Tables) paths { return paths{tb.relabels, tb.walks, tb.runs} }

// subtreeLinks counts the links below v in topo, an in-forest.
func subtreeLinks(topo *Topology, v graph.NodeID) int {
	n := 0
	for _, l := range topo.rows[v] {
		n += 1 + subtreeLinks(topo, l.tail)
	}
	return n
}

// TestNeighborDistancesMatchDijkstra is the relabel's and the tree walk's
// proof obligation: whatever link set a neighbor has reported, the D_jk
// ApplyLSU leaves are the bits Dijkstra would compute. The shapes are the
// ones ApplyLSU treats differently: exact trees (the walk, which must then have examined each
// link exactly once), one entry re-pricing a link of one (the relabel, which
// must have examined exactly the links below its tail), trees with one to
// many extra links (Dijkstra), costs from {0, 1, 2} so zero-cost links and
// equal-cost ties are everywhere, links no path from k reaches, infinite
// costs, and the state between the two halves of a diff — the new tree's
// links added, the old tree's not yet deleted. The shapes the relabel treats
// one by one follow, each with the way it must take.
func TestNeighborDistancesMatchDijkstra(t *testing.T) {
	t.Run("shapes", testRelabelShapes)
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
		if got := tb.walked - before; got != len(tree) {
			t.Fatalf("seed %d: the walk examined %d links of a %d-link tree", seed, got, len(tree))
		}

		// One entry re-pricing a link of the tree: the relabel examines the
		// links below its tail and no other, unless they are more than half
		// the tree.
		if len(tree) > 0 {
			e := tree[r.Intn(len(tree))]
			e.Op, e.Cost = lsu.OpChange, float64(3+r.Intn(3))
			below, was := subtreeLinks(tb.NeighborTopo(k), e.Tail), pathsOf(tb)
			before = tb.walked
			applyChecked(t, tb, k, []lsu.Entry{e}, "one link of the tree re-priced")
			want := paths{was.relabels + 1, was.walks, was.runs}
			if 1+below > (len(tree)+1)/2 {
				want = paths{was.relabels, was.walks + 1, was.runs}
			}
			if got := pathsOf(tb); got != want || (got.relabels > was.relabels && tb.walked-before != below) {
				t.Fatalf("seed %d: re-pricing a link above %d of %d links took %+v, %d links examined; want %+v",
					seed, below, len(tree), got, tb.walked-before, want)
			}
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
// set, and the walk must not turn one into extra work per LSU. Whatever the
// table — every ordered pair over 160 nodes, or a 160-node chain whose last
// node links back into it — Dijkstra takes over after at most n links
// examined; a table with a node two links enter is no forest, and goes to
// Dijkstra before any walk.
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
		if got := pathsOf(tb); got != (paths{runs: 1}) {
			t.Errorf("%s: took %+v, want Dijkstra alone", c.name, got)
		}
	}
}

// testRelabelShapes runs each shape the relabel treats one by one on a fixed
// tree, and checks the way it took and, where it relabelled, the links it
// examined.
//
//	0 ─1→ 1 ─1→ 3 ─2→ 5 ─1→ 7      10, 11: not in the tree
//	│     │     └─1→ 6
//	│     └─0→ 4
//	└─2→ 2 ─1→ 8 ─3→ 9
func testRelabelShapes(t *testing.T) {
	const n, k = 12, graph.NodeID(0)
	set := func(h, tl graph.NodeID, c float64) lsu.Entry {
		return lsu.Entry{Op: lsu.OpAdd, Head: h, Tail: tl, Cost: c}
	}
	del := func(h, tl graph.NodeID) lsu.Entry { return lsu.Entry{Op: lsu.OpDelete, Head: h, Tail: tl} }
	tree := []lsu.Entry{set(0, 1, 1), set(0, 2, 2), set(1, 3, 1), set(1, 4, 0), set(3, 5, 2), set(3, 6, 1), set(5, 7, 1), set(2, 8, 1), set(8, 9, 3)}
	inf := math.Inf(1)
	const relabel, walk, run, none = "relabel", "walk", "Dijkstra", "nothing"
	for _, c := range []struct {
		name   string
		lsus   [][]lsu.Entry // applied in turn; the last one is checked
		way    string
		walked int // links the relabel examines
	}{
		{"a one-entry re-price deep in the tree", [][]lsu.Entry{{set(3, 5, 4)}}, relabel, 1},
		{"a re-parent, add then delete", [][]lsu.Entry{{set(4, 5, 1), del(3, 5)}}, relabel, 1},
		{"a re-parent, delete then add", [][]lsu.Entry{{del(3, 5), set(4, 5, 1)}}, relabel, 1},
		{"a touched child listed before its touched parent", [][]lsu.Entry{{set(5, 7, 2), set(1, 3, 5)}}, relabel, 3},
		{"a touched parent listed before its touched child", [][]lsu.Entry{{set(1, 3, 5), set(5, 7, 2)}}, relabel, 3},
		{"a no-op delete", [][]lsu.Entry{{del(10, 11)}}, none, 0},
		{"a no-op re-price", [][]lsu.Entry{{set(3, 5, 2)}}, none, 0},
		{"an add then a delete of the same link", [][]lsu.Entry{{set(2, 10, 1), del(2, 10)}}, relabel, 0},
		{"a delete then an add of the same link", [][]lsu.Entry{{del(1, 3), set(1, 3, 1)}}, relabel, 3},
		{"a link into k", [][]lsu.Entry{{set(9, 0, 1)}}, run, 0},
		{"a link into k deleted", [][]lsu.Entry{{set(9, 0, 1)}, {del(9, 0)}}, walk, 0},
		{"a second in-link to a node", [][]lsu.Entry{{set(2, 5, 1)}}, run, 0},
		{"an in-link deleted, leaving one no entry names", [][]lsu.Entry{{set(2, 5, 1)}, {del(3, 5)}}, walk, 0},
		{"an in-link deleted, leaving the one an entry names", [][]lsu.Entry{{set(2, 5, 1)}, {del(3, 5), set(2, 5, 3)}}, relabel, 1},
		{"an infinite cost inside a touched subtree", [][]lsu.Entry{{set(3, 5, inf)}, {set(1, 3, 2)}}, relabel, 3},
		{"an infinite cost on a touched link", [][]lsu.Entry{{set(1, 3, inf)}}, relabel, 3},
		{"a subtree cut off from k", [][]lsu.Entry{{del(1, 3)}}, relabel, 3},
		{"a cycle detached from k", [][]lsu.Entry{{del(1, 3), set(7, 3, 1)}}, walk, 0},
		{"links nothing reaches, then joined", [][]lsu.Entry{{set(10, 11, 1)}, {set(6, 10, 1)}}, relabel, 1},
	} {
		tb := NewTables(n-1, n)
		tb.SetAdjacent(k, 1)
		applyChecked(t, tb, k, tree, c.name+": the tree")
		for _, es := range c.lsus[:len(c.lsus)-1] {
			applyChecked(t, tb, k, es, c.name+": before")
		}
		was, before := pathsOf(tb), tb.walked
		applyChecked(t, tb, k, c.lsus[len(c.lsus)-1], c.name)
		got, walked := none, tb.walked-before
		switch pathsOf(tb) {
		case paths{was.relabels + 1, was.walks, was.runs}:
			got = relabel
		case paths{was.relabels, was.walks + 1, was.runs}:
			got = walk
		case paths{was.relabels, was.walks, was.runs + 1}:
			got = run
		}
		if got != c.way || (got == relabel && walked != c.walked) {
			t.Errorf("%s: %s, %d links examined; want %s (%d links)", c.name, got, walked, c.way, c.walked)
		}
	}
}
