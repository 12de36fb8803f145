package dataplane

import (
	"math"
	"runtime"
	"testing"

	"minroute/internal/graph"
)

// TestBucketSharesMatchWeights pins the apportionment bound: each next
// hop's bucket share sits within 1/NumBuckets of its phi weight — the
// construction that keeps the realized split inside the 2% gate.
func TestBucketSharesMatchWeights(t *testing.T) {
	cases := [][]float64{
		{1},
		{0.5, 0.5},
		{0.75, 0.25},
		{0.6, 0.3, 0.1},
		{1. / 3, 1. / 3, 1. / 3},
		{0.998, 0.001, 0.001},
	}
	for _, ws := range cases {
		hops := make([]graph.NodeID, len(ws))
		for i := range hops {
			hops[i] = graph.NodeID(i + 1)
		}
		tab := Compile([]Entry{{Dst: 9, Hops: hops, Weights: ws}}, nil)
		shares := tab.BucketShares(9)
		for i, h := range hops {
			if d := math.Abs(shares[h] - ws[i]); d > 1.0/NumBuckets+1e-12 {
				t.Errorf("weights %v: hop %d share %.6f want %.6f (err %.6f > 1/%d)",
					ws, h, shares[h], ws[i], d, NumBuckets)
			}
		}
		total := 0.0
		for _, s := range shares {
			total += s
		}
		if math.Abs(total-1) > 1e-12 {
			t.Errorf("weights %v: shares sum %.9f", ws, total)
		}
	}
}

// TestFlowStickiness asserts a flow's next hop is a pure function of the
// table: repeated lookups agree, and recompiling identical entries moves
// no flow.
func TestFlowStickiness(t *testing.T) {
	entries := []Entry{{Dst: 5, Hops: []graph.NodeID{1, 2, 3}, Weights: []float64{0.5, 0.3, 0.2}}}
	tab := Compile(entries, nil)
	first := make(map[uint64]graph.NodeID)
	for id := uint64(0); id < 4096; id++ {
		h, ok := tab.Lookup(5, id)
		if !ok {
			t.Fatal("route missing")
		}
		first[id] = h
	}
	same := Compile(entries, tab)
	for id := uint64(0); id < 4096; id++ {
		if h, _ := tab.Lookup(5, id); h != first[id] {
			t.Fatalf("flow %d moved on re-lookup: %d -> %d", id, first[id], h)
		}
		if h, _ := same.Lookup(5, id); h != first[id] {
			t.Fatalf("flow %d moved on identical recompile: %d -> %d", id, first[id], h)
		}
	}
	if m := same.Moved(tab, 5); m != 0 {
		t.Fatalf("identical recompile moved %d buckets", m)
	}
}

// TestRebalanceMinimalMovement pins the consistent-hash contract: pushing
// the weights from {0.5,0.5} to {0.75,0.25} must move exactly the quota
// difference — 64 of 256 buckets, every one from the shrinking hop to the
// growing hop — and nothing else.
func TestRebalanceMinimalMovement(t *testing.T) {
	hops := []graph.NodeID{1, 2}
	old := Compile([]Entry{{Dst: 7, Hops: hops, Weights: []float64{0.5, 0.5}}}, nil)
	next := Compile([]Entry{{Dst: 7, Hops: hops, Weights: []float64{0.75, 0.25}}}, old)

	if m := next.Moved(old, 7); m != NumBuckets/4 {
		t.Fatalf("moved %d buckets, want exactly %d", m, NumBuckets/4)
	}
	or, nr := old.routes[7], next.routes[7]
	for i := 0; i < NumBuckets; i++ {
		oh, nh := or.hops[or.buckets[i]], nr.hops[nr.buckets[i]]
		if oh != nh && !(oh == 2 && nh == 1) {
			t.Fatalf("bucket %d moved %d -> %d; only 2->1 movement is justified", i, oh, nh)
		}
	}
	// And back: restoring the old weights moves the same fraction again,
	// never more.
	back := Compile([]Entry{{Dst: 7, Hops: hops, Weights: []float64{0.5, 0.5}}}, next)
	if m := back.Moved(next, 7); m != NumBuckets/4 {
		t.Fatalf("restore moved %d buckets, want %d", m, NumBuckets/4)
	}
}

// TestRebalanceHopRemoval: when a successor vanishes, only its buckets
// (plus any quota shift) reassign; flows on surviving hops stay put.
func TestRebalanceHopRemoval(t *testing.T) {
	old := Compile([]Entry{{Dst: 3, Hops: []graph.NodeID{1, 2, 4}, Weights: []float64{0.4, 0.4, 0.2}}}, nil)
	next := Compile([]Entry{{Dst: 3, Hops: []graph.NodeID{1, 4}, Weights: []float64{0.5, 0.5}}}, old)
	or, nr := old.routes[3], next.routes[3]
	for i := 0; i < NumBuckets; i++ {
		oh, nh := or.hops[or.buckets[i]], nr.hops[nr.buckets[i]]
		if oh != 2 && oh != nh {
			// A surviving hop's bucket may only move if that hop shrank
			// below its old fill; here both survivors grew, so none move.
			t.Fatalf("bucket %d moved %d -> %d though hop %d survived and grew", i, oh, nh, oh)
		}
	}
}

// TestCompileDeterministic asserts a table is a pure function of its
// entries: entry order and GOMAXPROCS perturbations yield byte-identical
// renderings.
func TestCompileDeterministic(t *testing.T) {
	a := []Entry{
		{Dst: 1, Hops: []graph.NodeID{2, 3}, Weights: []float64{0.7, 0.3}},
		{Dst: 4, Hops: []graph.NodeID{5}, Weights: []float64{1}},
		{Dst: 6, Hops: []graph.NodeID{7, 8, 9}, Weights: []float64{0.2, 0.5, 0.3}},
	}
	b := []Entry{a[2], a[0], a[1]} // shuffled entries
	want := Compile(a, nil).String()
	prev := runtime.GOMAXPROCS(0)
	for _, procs := range []int{1, 2, prev} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 8; i++ {
			if got := Compile(b, nil).String(); got != want {
				t.Fatalf("GOMAXPROCS=%d iter %d: table diverged:\n%s\nwant:\n%s", procs, i, got, want)
			}
		}
	}
	runtime.GOMAXPROCS(prev)
}

// TestLookupWithoutRoute: a destination the table holds no route to —
// past its end, negative, in a gap between routes, or named by an entry
// with no successors — misses instead of panicking, and Dests lists only
// the routed ones, ascending.
func TestLookupWithoutRoute(t *testing.T) {
	tab := Compile([]Entry{
		{Dst: 4, Hops: []graph.NodeID{5, 6}, Weights: []float64{0.5, 0.5}},
		{Dst: 1, Hops: []graph.NodeID{2}, Weights: []float64{1}},
		{Dst: 7}, // no hops: entry skipped
	}, nil)
	for _, dst := range []graph.NodeID{99, 8, 7, 5, 2, 0, graph.None} {
		if hop, ok := tab.Lookup(dst, 0); ok {
			t.Errorf("lookup of unrouted destination %d gave hop %d", dst, hop)
		}
		if tab.BucketShares(dst) != nil || tab.Moved(tab, dst) != NumBuckets {
			t.Errorf("destination %d: shares or moved report a route", dst)
		}
		if _, _, ok := tab.Route(dst); ok {
			t.Errorf("Route(%d) reports a route", dst)
		}
	}
	if got := tab.Dests(); len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Errorf("Dests = %v, want [1 4]", got)
	}
	if _, ok := Compile(nil, nil).Lookup(0, 0); ok {
		t.Error("empty table routed destination 0")
	}
}
