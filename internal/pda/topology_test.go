package pda

import (
	"slices"
	"testing"

	"minroute/internal/graph"
	"minroute/internal/lsu"
)

func TestTopologySetCostDelete(t *testing.T) {
	topo := NewTopology(4)
	topo.Set(0, 1, 2.5)
	if c, ok := topo.Cost(0, 1); !ok || c != 2.5 {
		t.Fatalf("Cost = %v,%v", c, ok)
	}
	topo.Set(0, 1, 3.5) // replace
	if c, _ := topo.Cost(0, 1); c != 3.5 {
		t.Fatalf("replacement cost = %v", c)
	}
	if topo.NumLinks() != 1 {
		t.Fatalf("NumLinks = %d", topo.NumLinks())
	}
	if !topo.Delete(0, 1) {
		t.Fatal("Delete failed")
	}
	if topo.Delete(0, 1) {
		t.Fatal("double delete reported true")
	}
	if topo.NumLinks() != 0 {
		t.Fatal("link remains after delete")
	}
}

func TestTopologyApply(t *testing.T) {
	topo := NewTopology(4)
	topo.Apply(lsu.Entry{Op: lsu.OpAdd, Head: 0, Tail: 1, Cost: 1})
	topo.Apply(lsu.Entry{Op: lsu.OpChange, Head: 0, Tail: 1, Cost: 2})
	if c, _ := topo.Cost(0, 1); c != 2 {
		t.Fatalf("cost after change = %v", c)
	}
	topo.Apply(lsu.Entry{Op: lsu.OpDelete, Head: 0, Tail: 1})
	if _, ok := topo.Cost(0, 1); ok {
		t.Fatal("link survives delete entry")
	}
}

func TestTopologyDiff(t *testing.T) {
	old := NewTopology(5)
	old.Set(0, 1, 1)
	old.Set(1, 2, 2)
	old.Set(2, 3, 3)

	cur := NewTopology(5)
	cur.Set(0, 1, 1) // unchanged
	cur.Set(1, 2, 9) // changed
	cur.Set(3, 4, 4) // added
	// (2,3) deleted

	diff := cur.Diff(old)
	byKey := map[[2]graph.NodeID]lsu.Entry{}
	for _, e := range diff {
		byKey[[2]graph.NodeID{e.Head, e.Tail}] = e
	}
	if len(diff) != 3 {
		t.Fatalf("diff has %d entries: %v", len(diff), diff)
	}
	if e := byKey[[2]graph.NodeID{1, 2}]; e.Op != lsu.OpChange || e.Cost != 9 {
		t.Fatalf("change entry wrong: %+v", e)
	}
	if e := byKey[[2]graph.NodeID{3, 4}]; e.Op != lsu.OpAdd || e.Cost != 4 {
		t.Fatalf("add entry wrong: %+v", e)
	}
	if e := byKey[[2]graph.NodeID{2, 3}]; e.Op != lsu.OpDelete {
		t.Fatalf("delete entry wrong: %+v", e)
	}
}

func TestTopologyDiffApplyRoundTrip(t *testing.T) {
	old := NewTopology(6)
	old.Set(0, 1, 1)
	old.Set(1, 2, 2)
	cur := NewTopology(6)
	cur.Set(0, 1, 5)
	cur.Set(4, 5, 1)

	rebuilt := old.Clone()
	for _, e := range cur.Diff(old) {
		rebuilt.Apply(e)
	}
	if !rebuilt.Equal(cur) {
		t.Fatalf("diff/apply round trip mismatch:\n%v\n%v", rebuilt, cur)
	}
}

func TestTopologyCloneIndependent(t *testing.T) {
	a := NewTopology(3)
	a.Set(0, 1, 1)
	b := a.Clone()
	b.Set(0, 1, 9)
	if c, _ := a.Cost(0, 1); c != 1 {
		t.Fatal("clone mutation leaked to original")
	}
}

func TestTopologyEqual(t *testing.T) {
	a := NewTopology(3)
	a.Set(0, 1, 1)
	b := NewTopology(3)
	if a.Equal(b) {
		t.Fatal("unequal tables reported equal")
	}
	b.Set(0, 1, 1)
	if !a.Equal(b) {
		t.Fatal("equal tables reported unequal")
	}
	b.Set(0, 1, 2)
	if a.Equal(b) {
		t.Fatal("cost mismatch reported equal")
	}
}

func TestTopologyEntries(t *testing.T) {
	topo := NewTopology(3)
	topo.Set(1, 2, 4)
	topo.Set(0, 1, 3)
	es := topo.Entries()
	if len(es) != 2 || es[0].Head != 0 || es[1].Head != 1 {
		t.Fatalf("entries = %v", es)
	}
	for _, e := range es {
		if e.Op != lsu.OpAdd {
			t.Fatalf("entry op = %v", e.Op)
		}
	}
}

// visited returns head's row as VisitOut walks it.
func visited(topo *Topology, head graph.NodeID) []lsu.Entry {
	var out []lsu.Entry
	topo.VisitOut(head, func(tail graph.NodeID, cost float64) {
		out = append(out, lsu.Entry{Op: lsu.OpAdd, Head: head, Tail: tail, Cost: cost})
	})
	return out
}

// TestTopologyRowOrder pins the row invariant everything else leans on:
// whatever order links arrive in — Set, Apply or Delete, on the table or on
// its clone — every traversal walks heads ascending and, within a head,
// tails ascending, and NumLinks counts exactly the links walked.
func TestTopologyRowOrder(t *testing.T) {
	add := func(h, tl graph.NodeID, c float64) lsu.Entry {
		return lsu.Entry{Op: lsu.OpAdd, Head: h, Tail: tl, Cost: c}
	}
	topo := NewTopology(8)
	topo.Set(5, 6, 56)
	topo.Set(2, 7, 27)
	topo.Set(2, 0, 20)
	topo.Apply(add(2, 4, 24))
	topo.Apply(add(2, 3, 99))
	topo.Set(0, 1, 1)
	topo.Apply(lsu.Entry{Op: lsu.OpChange, Head: 2, Tail: 3, Cost: 23})
	topo.Set(2, 5, 25)
	topo.Delete(2, 4)
	topo.Apply(lsu.Entry{Op: lsu.OpDelete, Head: 2, Tail: 6}) // absent: no-op

	want := []lsu.Entry{add(0, 1, 1), add(2, 0, 20), add(2, 3, 23), add(2, 5, 25), add(2, 7, 27), add(5, 6, 56)}
	check := func(name string, tp *Topology) {
		t.Helper()
		if got := tp.Entries(); !slices.Equal(got, want) {
			t.Fatalf("%s: Entries = %v, want %v", name, got, want)
		}
		if got := visited(tp, 2); !slices.Equal(got, want[1:5]) {
			t.Fatalf("%s: VisitOut(2) = %v, want %v", name, got, want[1:5])
		}
		if tp.NumLinks() != len(want) {
			t.Fatalf("%s: NumLinks = %d, want %d", name, tp.NumLinks(), len(want))
		}
	}
	check("table", topo)
	clone := topo.Clone()
	check("clone", clone)

	// A row of the clone shares no storage with the original's.
	clone.Delete(2, 0)
	clone.Set(2, 1, 21)
	check("table after clone edits", topo)

	// Diff: adds and changes in (head, tail) order, then deletes in
	// (head, tail) order.
	old := NewTopology(8)
	old.Set(7, 0, 70)
	old.Set(2, 6, 26)
	old.Set(2, 3, 23)
	old.Set(2, 5, 52)
	old.Set(0, 1, 1)
	old.Set(1, 0, 10)
	wantDiff := []lsu.Entry{
		add(2, 0, 20),
		{Op: lsu.OpChange, Head: 2, Tail: 5, Cost: 25},
		add(2, 7, 27),
		add(5, 6, 56),
		{Op: lsu.OpDelete, Head: 1, Tail: 0},
		{Op: lsu.OpDelete, Head: 2, Tail: 6},
		{Op: lsu.OpDelete, Head: 7, Tail: 0},
	}
	if got := topo.Diff(old); !slices.Equal(got, wantDiff) {
		t.Fatalf("Diff = %v\nwant   %v", got, wantDiff)
	}
	if got := topo.Diff(topo.Clone()); got != nil {
		t.Fatalf("Diff against an equal table = %v, want nil", got)
	}
}
