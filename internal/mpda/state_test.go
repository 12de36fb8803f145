package mpda

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"minroute/internal/graph"
	"minroute/internal/lsu"
)

// settledRouter is router 0 of a four-node ID space, passive with every ACK
// in: neighbors 1 and 2 at cost 1, destination 3 one hop past 1 and five
// past 2, so D_3 = FD_3 = 2 and S_3 = [1].
func settledRouter(t *testing.T) *Router {
	t.Helper()
	owed := make(map[graph.NodeID]int)
	r := NewRouter(0, 4, func(to graph.NodeID, m *lsu.Msg) {
		if len(m.Entries) > 0 {
			owed[to]++
		}
	})
	ackAll := func() {
		for _, k := range []graph.NodeID{1, 2} {
			for ; owed[k] > 0; owed[k]-- {
				r.HandleLSU(&lsu.Msg{From: k, Ack: true})
			}
		}
	}
	r.LinkUp(1, 1)
	ackAll()
	r.LinkUp(2, 1)
	ackAll()
	r.HandleLSU(&lsu.Msg{From: 1, Entries: []lsu.Entry{{Op: lsu.OpAdd, Head: 1, Tail: 3, Cost: 1}}})
	ackAll()
	r.HandleLSU(&lsu.Msg{From: 2, Entries: []lsu.Entry{{Op: lsu.OpAdd, Head: 2, Tail: 3, Cost: 5}}})
	ackAll()
	if r.Active() || r.Dist(3) != 2 || r.FD(3) != 2 || !slices.Equal(r.Successors(3), []graph.NodeID{1}) {
		t.Fatalf("settled router: active=%v D_3=%v FD_3=%v S_3=%v, want passive, 2, 2, [1]", r.Active(), r.Dist(3), r.FD(3), r.Successors(3))
	}
	return r
}

// TestAppendStateCoversEveryField holds AppendState to its fields: two
// routers built by the same events encode byte-identically, and a router
// that differs from its twin in nothing but the phase, one D_j, one FD_j
// (by one ulp), one S_j or one owed-ACK count encodes differently. Dropping
// any field from the encoding fails its case.
func TestAppendStateCoversEveryField(t *testing.T) {
	if a, b := settledRouter(t), settledRouter(t); !bytes.Equal(a.AppendState(nil), b.AppendState(nil)) {
		t.Fatal("two routers built by the same events encode differently")
	}
	cases := []struct {
		name, field string
		// perturb moves field in r, leaving every other one as it was.
		perturb func(r *Router)
	}{
		{"phase", "phase", func(r *Router) { r.active = true }},
		{"D_j", "D_j", func(r *Router) {
			// A dearer link to 1 raises D_1 and D_3. FD_j only falls in
			// a PASSIVE MTU, and no D_jk moved, so FD and S stay; the
			// flood's phase and owed ACKs are put back.
			awaiting := slices.Clone(r.awaiting)
			r.LinkCostChange(1, 3)
			r.active, r.awaiting = false, awaiting
		}},
		{"FD_j by one ulp", "FD_j", func(r *Router) { r.fd[3] = math.Nextafter(r.fd[3], 0) }},
		{"S_j grows", "S_j", func(r *Router) { r.succ[3] = []graph.NodeID{1, 2} }},
		{"S_j member", "S_j", func(r *Router) { r.succ[3] = []graph.NodeID{2} }},
		{"owed ACKs", "owed ACKs", func(r *Router) { r.awaiting[2]++ }},
	}
	for _, c := range cases {
		twin, r := settledRouter(t), settledRouter(t)
		c.perturb(r)
		if got := differs(twin, r); !slices.Equal(got, []string{c.field}) {
			t.Fatalf("%s: the routers differ in %v, want %s alone", c.name, got, c.field)
		}
		if bytes.Equal(twin.AppendState(nil), r.AppendState(nil)) {
			t.Errorf("%s: a router that differs from its twin in %s alone encodes like it", c.name, c.field)
		}
	}
}

// differs names the fields, in AppendState's order, in which a and b
// differ, read through the exported accessors.
func differs(a, b *Router) []string {
	var out []string
	if a.Active() != b.Active() {
		out = append(out, "phase")
	}
	n := graph.NodeID(a.Tables().NumNodes())
	for _, f := range []struct {
		name string
		eq   func(j graph.NodeID) bool
	}{
		{"D_j", func(j graph.NodeID) bool { return a.Dist(j) == b.Dist(j) }},
		{"FD_j", func(j graph.NodeID) bool { return a.FD(j) == b.FD(j) }},
		{"S_j", func(j graph.NodeID) bool { return slices.Equal(a.Successors(j), b.Successors(j)) }},
		{"owed ACKs", func(k graph.NodeID) bool { return a.Owed(k) == b.Owed(k) }},
	} {
		for j := graph.NodeID(0); j < n; j++ {
			if !f.eq(j) {
				out = append(out, f.name)
				break
			}
		}
	}
	return out
}
