package dijkstra

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"minroute/internal/graph"
	"minroute/internal/rng"
)

// rowsView is a graph held the way pda holds one: a row of links per head,
// ascending by tail, at most one link per (head, tail). It finds the links
// into a node by reading every row, heads ascending: slow, and plainly the
// transpose that pda's kept index must equal.
type rowsView [][]edge

func (g rowsView) NumNodes() int { return len(g) }
func (g rowsView) VisitOut(u graph.NodeID, visit func(graph.NodeID, float64)) {
	for _, e := range g[u] {
		visit(e.to, e.cost)
	}
}
func (g rowsView) VisitIn(v graph.NodeID, visit func(graph.NodeID, float64)) {
	for u, row := range g {
		for _, e := range row {
			if e.to == v {
				visit(graph.NodeID(u), e.cost)
			}
		}
	}
}

// choices is where a repair case comes from: a seeded generator in the
// test, the fuzzer's bytes in the fuzz target.
type choices interface{ Intn(n int) int }

// byteChoices reads one choice per byte, and zeros once they run out.
type byteChoices []byte

func (b *byteChoices) Intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	c := int((*b)[0]) % n
	*b = (*b)[1:]
	return c
}

// The cost palettes. Every link of the first lengthens any finite path, so
// a tree over it is repaired in place, with exact ties from the small
// integers and 0.1+0.2; the second adds what makes Repair give way: zero, a
// cost every sum absorbs, one that absorbs every sum. Both hold +Inf.
var palettes = [][]float64{
	{1, 2, 0.1 + 0.2, 1, 2, math.Inf(1)},
	{0, 1, 2, 0.1 + 0.2, 1e-300, 1e300, math.Inf(1)},
}

// keptTree is a tree under repair beside the graph it spans, with the two
// lists the next Repair is owed.
type keptTree struct {
	g          rowsView
	src        graph.NodeID
	l          Labels
	s          Scratch
	cut, heads []graph.NodeID
}

func newKeptTree(n int, src graph.NodeID) *keptTree {
	k := &keptTree{g: make(rowsView, n), src: src}
	k.l.Dist, k.l.Parent = make([]float64, n), make([]graph.NodeID, n)
	for i := range k.l.Dist {
		k.l.Dist[i], k.l.Parent[i] = Inf, graph.None
	}
	k.l.Dist[src] = 0
	return k
}

// setRow makes row the links of head h and notes what Repair must be told,
// the way a holder of rows finds it: one ordered pass over the old row.
func (k *keptTree) setRow(h graph.NodeID, row []edge) {
	slices.SortFunc(row, func(a, b edge) int { return int(a.to) - int(b.to) })
	row = slices.CompactFunc(row, func(a, b edge) bool { return a.to == b.to })
	same := len(row) == len(k.g[h])
	for _, was := range k.g[h] {
		i, found := slices.BinarySearchFunc(row, was.to, func(e edge, to graph.NodeID) int { return int(e.to) - int(to) })
		if !found || math.Float64bits(row[i].cost) != math.Float64bits(was.cost) {
			same = false
			if k.l.Parent[was.to] == h {
				k.cut = append(k.cut, was.to)
			}
		}
	}
	if !same {
		k.heads = append(k.heads, h)
	}
	k.g[h] = row
}

// repair runs the Repair owed and fails unless the labels are, bit for bit,
// Run's over the graph as it stands, Moved accounts for every label that
// differs from before, and — where every link lengthens its path — Parent is
// the lowest-address in-neighbor attaining Dist, checked without Run.
func (k *keptTree) repair(t testing.TB, what string) {
	t.Helper()
	wasDist, wasParent := slices.Clone(k.l.Dist), slices.Clone(k.l.Parent)
	k.s.Repair(k.g, k.src, &k.l, k.cut, k.heads)
	k.cut, k.heads = k.cut[:0], k.heads[:0]

	want := Run(k.g, k.src)
	for x := range want.Dist {
		if math.Float64bits(k.l.Dist[x]) != math.Float64bits(want.Dist[x]) || k.l.Parent[x] != want.Parent[x] {
			t.Fatalf("%s: node %d labelled (%v, %d), Run says (%v, %d)\ngraph %v",
				what, x, k.l.Dist[x], k.l.Parent[x], want.Dist[x], want.Parent[x], k.g)
		}
	}
	listed := make(map[graph.NodeID]bool)
	for i, x := range k.l.Moved {
		if listed[x] {
			t.Fatalf("%s: Moved lists node %d twice", what, x)
		}
		listed[x] = true
		if math.Float64bits(k.l.WasDist[i]) != math.Float64bits(wasDist[x]) || k.l.WasParent[i] != wasParent[x] {
			t.Fatalf("%s: Moved says node %d was (%v, %d), it was (%v, %d)",
				what, x, k.l.WasDist[i], k.l.WasParent[i], wasDist[x], wasParent[x])
		}
	}
	for x := range wasDist {
		moved := math.Float64bits(k.l.Dist[x]) != math.Float64bits(wasDist[x]) || k.l.Parent[x] != wasParent[x]
		if moved && !listed[graph.NodeID(x)] {
			t.Fatalf("%s: node %d went (%v, %d) → (%v, %d) and is not in Moved",
				what, x, wasDist[x], wasParent[x], k.l.Dist[x], k.l.Parent[x])
		}
	}
	if k.l.loose {
		return
	}
	best := make([]graph.NodeID, len(k.g))
	for x := range best {
		best[x] = graph.None
	}
	for u, row := range k.g {
		for _, e := range row {
			if d := k.l.Dist[u]; d+e.cost < Inf && math.Float64bits(d+e.cost) == math.Float64bits(k.l.Dist[e.to]) && best[e.to] == graph.None {
				best[e.to] = graph.NodeID(u) // heads ascend: the first is the lowest
			}
		}
	}
	best[k.src] = graph.None
	if !slices.Equal(best, k.l.Parent) {
		t.Fatalf("%s: Parent = %v\nlowest tight in-neighbors %v\ngraph %v", what, k.l.Parent, best, k.g)
	}
}

// driveRepairs builds a graph of 2–160 nodes — a tree from the source plus
// 0–64 extra links — has Repair label it from nothing, then plays batches of
// 1–8 row edits, a Repair after each batch. It returns how many Repairs ran
// and how many of them gave way to Run.
func driveRepairs(t testing.TB, c choices, batches int, what string) (repairs, fallbacks int) {
	n := 2 + c.Intn(159)
	palette := c.Intn(len(palettes))
	costs := palettes[palette]
	cost := func() float64 { return costs[c.Intn(len(costs))] }
	node := func() graph.NodeID { return graph.NodeID(c.Intn(n)) }
	k := newKeptTree(n, node())
	rows := make(rowsView, n)
	for i := 1; i < n; i++ { // node i hangs off an earlier one, the source first
		h, tl := (int(k.src)+c.Intn(i))%n, (int(k.src)+i)%n
		rows[h] = append(rows[h], edge{graph.NodeID(tl), cost()})
	}
	for extra := c.Intn(65); extra > 0; extra-- {
		h := node()
		rows[h] = append(rows[h], edge{node(), cost()})
	}
	for h, row := range rows {
		k.setRow(graph.NodeID(h), row)
	}
	k.repair(t, what+": from nothing")

	// with returns h's row with the link to tl at that price, added or re-priced.
	with := func(h, tl graph.NodeID, price float64) []edge {
		row := slices.DeleteFunc(slices.Clone(k.g[h]), func(e edge) bool { return e.to == tl })
		return append(row, edge{tl, price})
	}
	for b := 0; b < batches; b++ {
		for edits := 1 + c.Intn(8); edits > 0; edits-- {
			h := node()
			op := c.Intn(9)
			if op == 6 {
				h, op = k.src, c.Intn(6) // the source's own row
			}
			row := slices.Clone(k.g[h])
			var pick int
			if len(row) > 0 {
				pick = c.Intn(len(row))
			}
			switch {
			case op == 0 && len(row) > 0: // delete
				row = slices.Delete(row, pick, pick+1)
			case op == 1: // add (or re-price, when the link is there)
				row = with(h, node(), cost())
			case op == 2 && len(row) > 0: // re-price up
				row[pick].cost = row[pick].cost*2 + 1
			case op == 3 && len(row) > 0: // re-price down
				row[pick].cost /= 2
			case op == 4 && len(row) > 0: // re-price to the same bits
				row[pick].cost = k.g[h][pick].cost
			case op == 5: // the whole row replaced
				row = row[:0]
				for links := c.Intn(5); links > 0; links-- {
					row = append(row, edge{node(), cost()})
				}
			case op == 7: // cut a subtree off: some node's tree link goes
				if v := node(); k.l.Parent[v] != graph.None {
					h = k.l.Parent[v]
					row = slices.DeleteFunc(slices.Clone(k.g[h]), func(e edge) bool { return e.to == v })
				}
			case op == 8: // join a node nothing reaches to one something does
				if u, v := node(), node(); k.l.Dist[u] < Inf && !(k.l.Dist[v] < Inf) {
					h, row = u, with(u, v, cost())
				}
			}
			k.setRow(h, row)
		}
		k.repair(t, fmt.Sprintf("%s: batch %d", what, b))
	}
	if palette == 0 && k.s.fallbacks > 0 {
		t.Fatalf("%s: %d repairs over links that all lengthen gave way to Run", what, k.s.fallbacks)
	}
	return batches + 1, k.s.fallbacks
}

// TestRepairMatchesDijkstra is Repair's proof obligation: after any batch of
// row edits — links deleted, added, re-priced up, down and to the same bits,
// whole rows replaced, the source's row changed, subtrees cut off and joined
// back — the kept labels are the bits Run computes over the graph as it
// stands. Half the seeds draw costs that make exact ties common and keep
// every link lengthening, so the repair itself answers; the other half add
// zero, 1e-300 and 1e300, where it must notice and give way — and only
// there: on the first half no repair may fall back. Both counts are
// reported: a test that only ever fell back would prove nothing.
func TestRepairMatchesDijkstra(t *testing.T) {
	var repairs, fallbacks int
	for seed := uint64(1); seed <= 200; seed++ {
		r, f := driveRepairs(t, rng.New(seed), 20, fmt.Sprintf("seed %d", seed))
		repairs, fallbacks = repairs+r, fallbacks+f
	}
	t.Logf("%d repairs, %d of them handed to Run", repairs, fallbacks)
	if fallbacks*4 < repairs || fallbacks*4 > repairs*3 {
		t.Errorf("%d of %d repairs fell back: want both paths well exercised", fallbacks, repairs)
	}
}

// FuzzRepair decodes its input into a graph and a sequence of row edits (one
// choice per byte) and holds each Repair to TestRepairMatchesDijkstra's
// oracle.
func FuzzRepair(f *testing.F) {
	f.Add([]byte(nil))
	// Per palette: a small and a large graph, then one batch of each edit.
	for palette := byte(0); palette < 2; palette++ {
		for op := byte(0); op < 9; op++ {
			f.Add([]byte{6, palette, 2, 0, 1, 1, 2, 3, 2, 0, 3, 1, 4, 2, 2, 1, 0, 3, op, 1, 2, 3})
			f.Add([]byte{120, palette, 77, 3, 9, 27, 81, 243, 5, 15, 45, 135, 0, 1, 2, 3, 4, 5, 6, 7, op, 8, 13})
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := byteChoices(data)
		driveRepairs(t, &c, 1+len(data)/16, "fuzz")
	})
}
