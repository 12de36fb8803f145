package mpda_test

import (
	"bytes"
	"testing"

	"minroute/internal/graph"
	"minroute/internal/lsu"
	"minroute/internal/mpda"
	"minroute/internal/node"
)

// TestAppendStateSeesOwedACK is the regression test for the digest the
// live stack compared state with before AppendState: node.RouterSummary
// renders D_j and S_j only, so two routers whose tables agree while one
// still waits for an ACK rendered and hashed equal. That wait is the state
// MPDA's single-hop synchronisation rests on. Here the twin re-runs
// LinkUp on its live link at the same cost: a full-table sync is sent,
// nothing in the tables moves, the router stays PASSIVE — and owes an ACK.
func TestAppendStateSeesOwedACK(t *testing.T) {
	build := func() *mpda.Router {
		r := mpda.NewRouter(0, 3, func(graph.NodeID, *lsu.Msg) {})
		r.LinkUp(1, 1)
		r.HandleLSU(&lsu.Msg{From: 1, Ack: true, Entries: []lsu.Entry{{Op: lsu.OpAdd, Head: 1, Tail: 2, Cost: 1}}})
		r.HandleLSU(&lsu.Msg{From: 1, Ack: true})
		return r
	}
	a, b := build(), build()
	b.LinkUp(1, 1)
	if a.Active() || b.Active() || a.Owed(1) != 0 || b.Owed(1) != 1 {
		t.Fatalf("active %v/%v, owed by 1: %d/%d; want both passive, 0/1", a.Active(), b.Active(), a.Owed(1), b.Owed(1))
	}
	for j := graph.NodeID(0); j < 3; j++ {
		if a.FD(j) != b.FD(j) {
			t.Fatalf("FD_%d: %v vs %v", j, a.FD(j), b.FD(j))
		}
	}
	if sa, sb := node.RouterSummary(a), node.RouterSummary(b); sa != sb {
		t.Fatalf("the text renderings differ, so this is not the case the text missed:\n%s\n%s", sa, sb)
	}
	if bytes.Equal(a.AppendState(nil), b.AppendState(nil)) {
		t.Fatal("AppendState encodes a router that owes an ACK like one that does not")
	}
	if mpda.Digest(a.AppendState(nil)) == mpda.Digest(b.AppendState(nil)) {
		t.Fatal("Digest hashes the two encodings equal")
	}
}
