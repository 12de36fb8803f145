// Package pda implements the Partial-topology Dissemination Algorithm of
// Section 4.1.1 of the paper: a link-state shortest-path routing algorithm
// in which each router communicates to its neighbors only the links on its
// own minimum-cost routing tree, validates conflicting link reports by
// preferring the neighbor offering the shortest distance to the head of the
// link (not by sequence numbers), and converges to correct shortest paths a
// finite time after the last change (the paper's Theorem 2).
//
// An event costs what it moved: the MTU keeps its merge, its tree and T, and
// brings each up to date from the rows an event made stale — a row is stale
// only where its preferred neighbor's row changed or its preferred neighbor
// can have, which the recorded preference and its offer D_jk + l_ik decide —
// and the tree repair finds the links into a cut subtree through the
// merge's kept in-link index; D_·k is labelled again only under the tails
// whose in-link a neighbor's LSU changed, while T_k is an in-forest rooted
// at k (a walk of the whole tree when those subtrees are most of it,
// Dijkstra when T_k is no forest); Tables.Moved names the destinations whose
// distances changed, for whatever is derived from them (DESIGN.md §17).
package pda

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"minroute/internal/graph"
	"minroute/internal/lsu"
)

// link is one stored triplet, keyed by its row (the head).
type link struct {
	tail graph.NodeID
	cost float64
}

// Topology is a router's view of a set of directed links with costs: the
// main topology table T and the neighbor tables T_k of the paper. Entries
// are triplets [head, tail, cost], held as one row per head over the dense
// NodeID space, each row ascending by tail — so every traversal is already
// in the (head, tail) order the protocol's tie-breaking and LSU contents
// depend on, and none of them allocates or sorts.
type Topology struct {
	rows  [][]link
	links int
	// in[v] counts the links into v and multi the nodes with more than one,
	// kept by Set and Delete; in waits for the first Set. Only a table whose
	// every link came through Set has them right: RunMTU writes the rows of
	// its merge and of T directly, and nothing asks those.
	in    []int32
	multi int
}

// NewTopology returns an empty topology over an ID space of n nodes.
func NewTopology(n int) *Topology {
	return &Topology{rows: make([][]link, n)}
}

// NumNodes implements dijkstra.View.
func (t *Topology) NumNodes() int { return len(t.rows) }

// VisitOut implements dijkstra.View: ascending tail ID.
func (t *Topology) VisitOut(u graph.NodeID, visit func(graph.NodeID, float64)) {
	for _, l := range t.rows[u] {
		visit(l.tail, l.cost)
	}
}

// find returns the position of tail in head's row, or where it would go:
// a binary search, written out so that it inlines its comparison.
func (t *Topology) find(head, tail graph.NodeID) (int, bool) {
	row := t.rows[head]
	i, j := 0, len(row)
	for i < j {
		if h := int(uint(i+j) >> 1); row[h].tail < tail {
			i = h + 1
		} else {
			j = h
		}
	}
	return i, i < len(row) && row[i].tail == tail
}

// Set records link head→tail with the given cost, replacing any previous
// entry, and reports whether the table changed: a new link, or another cost
// bit-wise.
func (t *Topology) Set(head, tail graph.NodeID, cost float64) bool {
	i, found := t.find(head, tail)
	if found {
		l := &t.rows[head][i]
		if math.Float64bits(l.cost) == math.Float64bits(cost) {
			return false
		}
		l.cost = cost
		return true
	}
	t.rows[head] = slices.Insert(t.rows[head], i, link{tail, cost})
	t.links++
	if t.in == nil {
		t.in = make([]int32, len(t.rows))
	}
	if t.in[tail]++; t.in[tail] == 2 {
		t.multi++
	}
	return true
}

// Delete removes link head→tail, reporting whether it was present.
func (t *Topology) Delete(head, tail graph.NodeID) bool {
	i, found := t.find(head, tail)
	if !found {
		return false
	}
	t.rows[head] = slices.Delete(t.rows[head], i, i+1)
	t.links--
	if t.in == nil {
		return true
	}
	if t.in[tail]--; t.in[tail] == 1 {
		t.multi--
	}
	return true
}

// inForest reports whether the links form an in-forest with root among its
// roots: no node has two links into it and none enters root. What root
// reaches is then a tree, whatever else the table holds.
func (t *Topology) inForest(root graph.NodeID) bool {
	return t.multi == 0 && (t.in == nil || t.in[root] == 0)
}

// Cost looks up the cost of link head→tail.
func (t *Topology) Cost(head, tail graph.NodeID) (float64, bool) {
	i, found := t.find(head, tail)
	if !found {
		return 0, false
	}
	return t.rows[head][i].cost, true
}

// NumLinks returns the number of links in the table.
func (t *Topology) NumLinks() int { return t.links }

// Clone deep-copies the table.
func (t *Topology) Clone() *Topology {
	c := NewTopology(len(t.rows))
	for h, row := range t.rows {
		c.rows[h] = slices.Clone(row)
	}
	c.links, c.in, c.multi = t.links, slices.Clone(t.in), t.multi
	return c
}

// Apply mutates the table according to one LSU entry and reports whether
// the table changed.
func (t *Topology) Apply(e lsu.Entry) bool {
	switch e.Op {
	case lsu.OpAdd, lsu.OpChange:
		return t.Set(e.Head, e.Tail, e.Cost)
	case lsu.OpDelete:
		return t.Delete(e.Head, e.Tail)
	}
	return false
}

// Diff returns the LSU entries that transform old into t, both over the
// same ID space: adds and changes in (head, tail) order, then deletes in
// (head, tail) order. Equal tables yield nil without allocating.
func (t *Topology) Diff(old *Topology) []lsu.Entry {
	var out []lsu.Entry
	for h, row := range t.rows {
		out = appendSet(out, graph.NodeID(h), row, old.rows[h])
	}
	for h, was := range old.rows {
		out = appendGone(out, graph.NodeID(h), was, t.rows[h])
	}
	return out
}

// appendSet appends an add for each link of h's row that was has not, and a
// change for each it has at another cost.
func appendSet(out []lsu.Entry, h graph.NodeID, row, was []link) []lsu.Entry {
	i, found := 0, false
	for _, l := range row {
		if i, found = seek(was, i, l.tail); !found {
			out = append(out, lsu.Entry{Op: lsu.OpAdd, Head: h, Tail: l.tail, Cost: l.cost})
		} else if was[i].cost != l.cost { // any bit-level cost change is flooded
			out = append(out, lsu.Entry{Op: lsu.OpChange, Head: h, Tail: l.tail, Cost: l.cost})
		}
	}
	return out
}

// appendGone appends a delete for each link of was that head h's row has not.
func appendGone(out []lsu.Entry, h graph.NodeID, was, row []link) []lsu.Entry {
	i, found := 0, false
	for _, l := range was {
		if i, found = seek(row, i, l.tail); !found {
			out = append(out, lsu.Entry{Op: lsu.OpDelete, Head: h, Tail: l.tail})
		}
	}
	return out
}

// seek is one step of an ordered merge: it advances i past the links of row
// below tail and reports whether row[i] is the link to tail.
func seek(row []link, i int, tail graph.NodeID) (int, bool) {
	for i < len(row) && row[i].tail < tail {
		i++
	}
	return i, i < len(row) && row[i].tail == tail
}

// Entries returns every link as an add entry, in (head, tail) order. Used
// for the full-table LSU sent when an adjacent link comes up.
func (t *Topology) Entries() []lsu.Entry {
	if t.links == 0 {
		return nil
	}
	out := make([]lsu.Entry, 0, t.links)
	for h, row := range t.rows {
		for _, l := range row {
			out = append(out, lsu.Entry{Op: lsu.OpAdd, Head: graph.NodeID(h), Tail: l.tail, Cost: l.cost})
		}
	}
	return out
}

// Equal reports whether two tables over the same ID space contain identical
// links and costs.
func (t *Topology) Equal(o *Topology) bool {
	// Costs compare exactly: they are stored verbatim, not computed.
	return t.links == o.links && slices.EqualFunc(t.rows, o.rows, slices.Equal[[]link])
}

// String renders the table for debugging.
func (t *Topology) String() string {
	var b strings.Builder
	for h, row := range t.rows {
		for _, l := range row {
			fmt.Fprintf(&b, "[%d->%d %.6g] ", h, l.tail, l.cost)
		}
	}
	return strings.TrimSpace(b.String())
}
