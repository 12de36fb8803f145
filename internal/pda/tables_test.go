package pda

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"minroute/internal/dijkstra"
	"minroute/internal/graph"
	"minroute/internal/lsu"
	"minroute/internal/rng"
)

// TestMTUConflictResolution exercises the paper's conflict rule directly:
// "If two or more neighbors report information of link (m, n) then the
// router should update topology table T with link information reported by
// the neighbor that offers the shortest distance from the router to the
// head node m of the link."
func TestMTUConflictResolution(t *testing.T) {
	// Router 0 with neighbors 1 and 2. Both report link 3->4 with different
	// costs. Neighbor 1 offers the shorter path to head node 3.
	tb := NewTables(0, 5)
	tb.SetAdjacent(1, 1.0)
	tb.SetAdjacent(2, 5.0)

	// Neighbor 1's tree: 1->3 (1), 3->4 (10).
	tb.ApplyLSU(1, []lsu.Entry{
		{Op: lsu.OpAdd, Head: 1, Tail: 3, Cost: 1},
		{Op: lsu.OpAdd, Head: 3, Tail: 4, Cost: 10},
	})
	// Neighbor 2's tree: 2->3 (1), 3->4 (2): cheaper tail but 2 is a more
	// expensive neighbor, so 1's report of 3->4 must win.
	tb.ApplyLSU(2, []lsu.Entry{
		{Op: lsu.OpAdd, Head: 2, Tail: 3, Cost: 1},
		{Op: lsu.OpAdd, Head: 3, Tail: 4, Cost: 2},
	})
	tb.RunMTU()
	// Distance to 3: via 1 = 1+1 = 2; via 2 = 5+1 = 6. Preferred is 1, so
	// link 3->4 must carry 1's cost (10) and D_4 = 2+10 = 12.
	if c, ok := tb.Main().Cost(3, 4); !ok || c != 10 {
		t.Fatalf("link 3->4 cost = %v,%v; want 10 from preferred neighbor", c, ok)
	}
	if got := tb.Dist(4); got != 12 {
		t.Fatalf("D_4 = %v, want 12", got)
	}
}

// TestMTUConflictTieBreaksLowestAddress: with equal distances to the head,
// the lower-address neighbor's report wins.
func TestMTUConflictTieBreaksLowestAddress(t *testing.T) {
	tb := NewTables(0, 5)
	tb.SetAdjacent(1, 1.0)
	tb.SetAdjacent(2, 1.0)
	tb.ApplyLSU(1, []lsu.Entry{
		{Op: lsu.OpAdd, Head: 1, Tail: 3, Cost: 1},
		{Op: lsu.OpAdd, Head: 3, Tail: 4, Cost: 7},
	})
	tb.ApplyLSU(2, []lsu.Entry{
		{Op: lsu.OpAdd, Head: 2, Tail: 3, Cost: 1},
		{Op: lsu.OpAdd, Head: 3, Tail: 4, Cost: 9},
	})
	tb.RunMTU()
	if c, _ := tb.Main().Cost(3, 4); c != 7 {
		t.Fatalf("link 3->4 cost = %v, want 7 (lower-address neighbor)", c)
	}
}

// TestMTUAdjacentLinksOverride: "any information about an adjacent link
// supplied by neighbors will be overridden by the most current information
// about the link available to router i".
func TestMTUAdjacentLinksOverride(t *testing.T) {
	tb := NewTables(0, 3)
	tb.SetAdjacent(1, 2.0)
	// Neighbor 1 claims our adjacent link 0->1 costs 99.
	tb.ApplyLSU(1, []lsu.Entry{
		{Op: lsu.OpAdd, Head: 0, Tail: 1, Cost: 99},
	})
	tb.RunMTU()
	if c, ok := tb.Main().Cost(0, 1); !ok || c != 2.0 {
		t.Fatalf("adjacent link cost = %v,%v; want local value 2.0", c, ok)
	}
	if tb.Dist(1) != 2.0 {
		t.Fatalf("D_1 = %v, want 2", tb.Dist(1))
	}
}

// TestMTUPrunesToTree: T holds only shortest-path-tree links after MTU.
func TestMTUPrunesToTree(t *testing.T) {
	tb := NewTables(0, 4)
	tb.SetAdjacent(1, 1.0)
	tb.SetAdjacent(2, 1.0)
	tb.ApplyLSU(1, []lsu.Entry{{Op: lsu.OpAdd, Head: 1, Tail: 3, Cost: 1}})
	tb.ApplyLSU(2, []lsu.Entry{{Op: lsu.OpAdd, Head: 2, Tail: 3, Cost: 5}})
	tb.RunMTU()
	// Tree: 0->1, 0->2, 1->3. The 2->3 link is not on the tree.
	if _, ok := tb.Main().Cost(2, 3); ok {
		t.Fatal("non-tree link 2->3 survived MTU pruning")
	}
	if tb.Main().NumLinks() != 3 {
		t.Fatalf("tree has %d links, want 3", tb.Main().NumLinks())
	}
	if tb.Dist(3) != 2 {
		t.Fatalf("D_3 = %v, want 2", tb.Dist(3))
	}
}

// TestMTUDiffIsMinimal: a second MTU with no changes reports an empty diff.
func TestMTUDiffIsMinimal(t *testing.T) {
	tb := NewTables(0, 3)
	tb.SetAdjacent(1, 1.0)
	if diff := tb.RunMTU(); len(diff) == 0 {
		t.Fatal("first MTU reported no changes")
	}
	if diff := tb.RunMTU(); len(diff) != 0 {
		t.Fatalf("idempotent MTU reported %v", diff)
	}
}

func TestTablesNeighborsSorted(t *testing.T) {
	tb := NewTables(0, 6)
	for _, k := range []graph.NodeID{5, 2, 4} {
		tb.SetAdjacent(k, 1)
	}
	nbrs := tb.Neighbors()
	if len(nbrs) != 3 || nbrs[0] != 2 || nbrs[1] != 4 || nbrs[2] != 5 {
		t.Fatalf("neighbors = %v", nbrs)
	}
}

func TestTablesRemoveAdjacentClearsState(t *testing.T) {
	tb := NewTables(0, 3)
	tb.SetAdjacent(1, 1)
	tb.ApplyLSU(1, []lsu.Entry{{Op: lsu.OpAdd, Head: 1, Tail: 2, Cost: 1}})
	tb.RunMTU()
	tb.RemoveAdjacent(1)
	tb.RunMTU()
	if !math.IsInf(tb.Dist(2), 1) {
		t.Fatalf("D_2 = %v after losing the only neighbor", tb.Dist(2))
	}
	if tb.NeighborTopo(1) != nil {
		t.Fatal("neighbor topology survives RemoveAdjacent")
	}
	if d := tb.NbrDist(2, 1); !math.IsInf(d, 1) {
		t.Fatalf("NbrDist after removal = %v", d)
	}
}

func TestTablesApplyLSUFromUnknownNeighborIgnored(t *testing.T) {
	tb := NewTables(0, 3)
	tb.ApplyLSU(1, []lsu.Entry{{Op: lsu.OpAdd, Head: 1, Tail: 2, Cost: 1}})
	tb.RunMTU()
	if !math.IsInf(tb.Dist(2), 1) {
		t.Fatal("LSU from unknown neighbor was processed")
	}
}

// TestApplyLSUDropsOutOfSpaceEntries is the regression test for a remote
// crash: LSUs arrive from the network, and an entry naming a node outside
// [0, NumNodes) used to reach Dijkstra and index past its vectors. Such
// entries are dropped; the rest of the message still applies.
func TestApplyLSUDropsOutOfSpaceEntries(t *testing.T) {
	tb := NewTables(0, 4)
	tb.SetAdjacent(1, 1)
	tb.ApplyLSU(1, []lsu.Entry{
		{Op: lsu.OpAdd, Head: 1, Tail: 9, Cost: 1},
		{Op: lsu.OpAdd, Head: 9, Tail: 1, Cost: 1},
		{Op: lsu.OpAdd, Head: 1, Tail: -1, Cost: 1},
		{Op: lsu.OpDelete, Head: -2, Tail: 1},
		{Op: lsu.OpAdd, Head: 1, Tail: 2, Cost: 3},
	})
	tb.RunMTU()
	if got := tb.NeighborTopo(1).Entries(); len(got) != 1 || got[0].Head != 1 || got[0].Tail != 2 {
		t.Fatalf("T_1 = %v, want only 1->2", got)
	}
	if tb.Dist(2) != 4 {
		t.Fatalf("D_2 = %v, want 4: the in-space entry of the same LSU must apply", tb.Dist(2))
	}
}

// TestRunMTUCleanIsNoOp: RunMTU looks only at the rows of its merge that an
// event made stale, and when none of them differs from its source it reports
// nothing, runs no shortest-path computation, and leaves T — the very table
// — and D alone. So it is after an entry-less LSU, after no event at all,
// and after an LSU from a neighbor that is preferred for none of the heads
// it names and whose new distances change no preference.
func TestRunMTUCleanIsNoOp(t *testing.T) {
	tb := NewTables(0, 5)
	tb.SetAdjacent(1, 1)
	tb.SetAdjacent(2, 5)
	tb.ApplyLSU(1, []lsu.Entry{{Op: lsu.OpAdd, Head: 1, Tail: 3, Cost: 1}, {Op: lsu.OpAdd, Head: 3, Tail: 4, Cost: 1}})
	tb.ApplyLSU(2, []lsu.Entry{{Op: lsu.OpAdd, Head: 2, Tail: 3, Cost: 1}, {Op: lsu.OpAdd, Head: 3, Tail: 4, Cost: 2}})
	if diff := tb.RunMTU(); len(diff) != 4 {
		t.Fatalf("first MTU diff = %v, want 0->1, 0->2, 1->3 and 3->4", diff)
	}
	main, before, dists, repairs := tb.Main(), tb.Main().Clone(), slices.Clone(tb.Dists()), tb.repairs
	for _, event := range []func(){
		func() { tb.ApplyLSU(1, nil) },
		func() {},
		func() { tb.ApplyLSU(2, []lsu.Entry{{Op: lsu.OpChange, Head: 3, Tail: 4, Cost: 3}}) },
	} {
		event()
		if diff := tb.RunMTU(); diff != nil {
			t.Fatalf("clean MTU reported %v", diff)
		}
	}
	if tb.NbrDist(4, 2) != 4 {
		t.Fatalf("D_4,2 = %v, want 4: the last LSU must have moved it", tb.NbrDist(4, 2))
	}
	if tb.repairs != repairs {
		t.Fatalf("%d clean MTUs went on to the shortest-path tree", tb.repairs-repairs)
	}
	if tb.Main() != main || !tb.Main().Equal(before) || !slices.Equal(tb.Dists(), dists) {
		t.Fatalf("clean MTU touched T: %v (was %v), D %v (was %v)", tb.Main(), before, tb.Dists(), dists)
	}
}

// rebuilt returns fresh tables given the same inputs tb holds now: every
// adjacent cost, and every T_k replayed as one full LSU.
func rebuilt(tb *Tables) *Tables {
	fresh := NewTables(tb.ID(), tb.NumNodes())
	for _, k := range tb.Neighbors() {
		cost, _ := tb.AdjCost(k)
		fresh.SetAdjacent(k, cost)
		fresh.ApplyLSU(k, tb.NeighborTopo(k).Entries())
	}
	return fresh
}

// fromScratch is the MTU as the paper states it (Fig. 3), with nothing kept:
// merge the T_k by preferred neighbor, override the adjacent links, run
// Dijkstra, prune to its tree. It returns T and D.
func fromScratch(tb *Tables) (*Topology, []float64) {
	merged := NewTopology(tb.NumNodes())
	for j := graph.NodeID(0); int(j) < tb.NumNodes(); j++ {
		if p := tb.PreferredNeighbor(j); p != graph.None && j != tb.ID() {
			tb.NeighborTopo(p).VisitOut(j, func(tail graph.NodeID, cost float64) { merged.Set(j, tail, cost) })
		}
	}
	for _, k := range tb.Neighbors() {
		cost, _ := tb.AdjCost(k)
		merged.Set(tb.ID(), k, cost)
	}
	res := dijkstra.Run(merged, tb.ID())
	for _, e := range merged.Entries() {
		if res.Parent[e.Tail] != e.Head {
			merged.Delete(e.Head, e.Tail)
		}
	}
	return merged, res.Dist
}

// keptIndexAgrees fails unless what RunMTU keeps beside its merge is what
// the merge and the tables say: the in-links of every node are the transpose
// of the merge's rows, heads ascending, costs to the bit, and every row's
// recorded preferred neighbor is PreferredNeighbor's answer now, with the
// offer D_jk + l_ik it makes to the bit.
func keptIndexAgrees(t *testing.T, tb *Tables, what string) {
	t.Helper()
	if tb.merged == nil {
		return // no neighbor yet: nothing merged
	}
	transpose := make([][]inLink, tb.NumNodes())
	for h, row := range tb.merged.rows {
		for _, l := range row {
			transpose[l.tail] = append(transpose[l.tail], inLink{graph.NodeID(h), l.cost})
		}
	}
	for v, want := range transpose {
		got := tb.merged.into[v]
		if !slices.EqualFunc(got, want, func(a, b inLink) bool {
			return a.head == b.head && math.Float64bits(a.cost) == math.Float64bits(b.cost)
		}) {
			t.Fatalf("%s: links into %d indexed as %v, the merge's rows give %v", what, v, got, want)
		}
	}
	for j := graph.NodeID(0); int(j) < tb.NumNodes(); j++ {
		got, want := tb.pref[j], preference{tb.PreferredNeighbor(j), math.Inf(1)}
		if k, ok := tb.index(want.k); ok {
			want.offer = tb.nbrDist[k][j] + tb.adj[k]
		}
		if got.k != want.k || math.Float64bits(got.offer) != math.Float64bits(want.offer) {
			t.Fatalf("%s: row %d recorded as merged from %d offering %v; its preferred neighbor is %d offering %v",
				what, j, got.k, got.offer, want.k, want.offer)
		}
	}
}

// TestTablesMatchFreshRebuild is the proof obligation of the incremental
// rules: T, D and the D_jk are functions of the current l_ik and T_k alone,
// so after any history of events — the merge redone only at stale rows, the
// tree repaired from the rows that changed, T re-derived only where the
// merge or a parent moved, Dijkstra skipped on entry-less LSUs and replaced
// by the subtree relabel or the tree walk on the others, several events piling up behind a deferred
// MTU as in MPDA's ACTIVE phase, and the node scan running over the whole ID
// space rather than the union of mentioned nodes — the tables must equal both
// the paper's MTU done from nothing (fromScratch) and fresh tables fed the
// same inputs (the D_jk a fresh Dijkstra over T_k, bit for bit), T's link
// count must be a recount, the reported diff must be, entry for entry and
// in order, what separates the new T from the previous one, the merge's
// in-link index and recorded preferred neighbors must agree with it and the
// tables (keptIndexAgrees) — so no row the stale rules let be was due a
// re-merge — and Moved must name every destination whose D_j or D_jk
// differs from before the event.
// Costs are small integers so equal-cost paths, and with them every
// tie-break, are common; every fourth seed adds zero, under which the tree
// repair must hand over to Dijkstra.
func TestTablesMatchFreshRebuild(t *testing.T) {
	const n = 10
	for seed := uint64(1); seed <= 30; seed++ {
		r := rng.New(seed)
		node := func() graph.NodeID { return graph.NodeID(r.Intn(n)) }
		least := min(1, int(seed%4)) // 0 on every fourth seed
		cost := func() float64 { return float64(least + r.Intn(4-least)) }
		tb := NewTables(node(), n)
		for step := 0; step < 400; step++ {
			wasNbrs, wasD := slices.Clone(tb.Neighbors()), slices.Clone(tb.Dists())
			wasNbrD := make([][]float64, len(wasNbrs))
			for i := range wasNbrD {
				wasNbrD[i] = slices.Clone(tb.nbrDist[i])
			}
			switch r.Intn(10) {
			case 0, 1:
				if k := node(); k != tb.ID() {
					tb.SetAdjacent(k, cost())
				}
			case 2:
				tb.RemoveAdjacent(node())
			case 3:
				tb.ApplyLSU(node(), nil) // a pure ACK
			case 4:
				tb.ApplyLSU(node(), []lsu.Entry{{Op: lsu.OpAdd, Head: node(), Tail: n + node(), Cost: 1}})
			case 5:
				// No event: the MTU below runs on clean tables.
			default:
				es := make([]lsu.Entry, 1+r.Intn(4))
				for i := range es {
					es[i] = lsu.Entry{Op: lsu.Op(1 + r.Intn(3)), Head: node(), Tail: node(), Cost: cost()}
				}
				tb.ApplyLSU(node(), es)
			}
			for _, k := range tb.Neighbors() {
				sameDistances(t, tb, k, fmt.Sprintf("seed %d step %d", seed, step))
			}
			if r.Intn(4) != 0 { // else the MTU is deferred: the next one sees several events
				prev := tb.Main().Clone()
				diff := tb.RunMTU()
				want := rebuilt(tb)
				want.RunMTU()
				if !tb.Main().Equal(want.Main()) {
					t.Fatalf("seed %d step %d: T = %v\nrebuilt  %v", seed, step, tb.Main(), want.Main())
				}
				if !slices.Equal(tb.Dists(), want.Dists()) {
					t.Fatalf("seed %d step %d: D = %v\nrebuilt  %v", seed, step, tb.Dists(), want.Dists())
				}
				refT, refD := fromScratch(tb)
				if !tb.Main().Equal(refT) || tb.Main().NumLinks() != len(tb.Main().Entries()) {
					t.Fatalf("seed %d step %d: T = %v (%d links counted)\nfrom scratch %v", seed, step, tb.Main(), tb.Main().NumLinks(), refT)
				}
				for j, d := range refD {
					if math.Float64bits(d) != math.Float64bits(tb.Dist(graph.NodeID(j))) {
						t.Fatalf("seed %d step %d: D = %v\nfrom scratch %v", seed, step, tb.Dists(), refD)
					}
				}
				if wantDiff := refT.Diff(prev); !slices.Equal(diff, wantDiff) {
					t.Fatalf("seed %d step %d: diff = %v\nwant %v", seed, step, diff, wantDiff)
				}
				keptIndexAgrees(t, tb, fmt.Sprintf("seed %d step %d", seed, step))
			}
			moved := tb.Moved().List()
			slices.Sort(moved)
			if len(slices.Compact(slices.Clone(moved))) != len(moved) {
				t.Fatalf("seed %d step %d: Moved = %v repeats a destination", seed, step, moved)
			}
			for j := graph.NodeID(0); j < n; j++ {
				changed := !slices.Equal(wasNbrs, tb.Neighbors()) || wasD[j] != tb.Dist(j)
				for i := 0; i < len(wasNbrD) && !changed; i++ {
					changed = wasNbrD[i][j] != tb.nbrDist[i][j]
				}
				if changed && !slices.Contains(moved, j) {
					t.Fatalf("seed %d step %d: destination %d moved, Moved = %v", seed, step, j, moved)
				}
			}
			tb.Moved().Reset()
		}
	}
}
