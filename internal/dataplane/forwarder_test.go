package dataplane

import (
	"math"
	"testing"
	"time"

	"minroute/internal/graph"
	"minroute/internal/leaktest"
	"minroute/internal/transport"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 500; i++ {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// line3 builds a 3-node line 0-1-2 over a MemNet with single-path tables
// and a constant per-hop latency, returning the forwarders.
func line3(t *testing.T, clk transport.Clock, hopLatency float64, ttl uint8) []*Forwarder {
	t.Helper()
	mn := transport.NewMemNet()
	fs := make([]*Forwarder, 3)
	for i := range fs {
		fs[i] = New(Config{
			Self: graph.NodeID(i), Nodes: 4, Conn: mn.Bind(), Clock: clk, TTL: ttl,
			LatencyOf: func(next graph.NodeID, sizeBits uint32) float64 { return hopLatency },
		})
		t.Cleanup(func(f *Forwarder) func() { return func() { f.Close() } }(fs[i]))
	}
	for i, f := range fs {
		for j, g := range fs {
			if i != j {
				f.SetPeer(graph.NodeID(j), g.LocalAddr(), nil)
			}
		}
	}
	one := func(h graph.NodeID) Entry { return Entry{Hops: []graph.NodeID{h}, Weights: []float64{1}} }
	with := func(f *Forwarder, es ...Entry) { f.Publish(es) }
	e := func(dst graph.NodeID, h graph.NodeID) Entry { x := one(h); x.Dst = dst; return x }
	with(fs[0], e(1, 1), e(2, 1), e(3, 1))
	with(fs[1], e(0, 0), e(2, 2), e(3, 2))
	with(fs[2], e(0, 1), e(1, 1))
	return fs
}

// TestForwarderDelivery drives a packet two hops down a line and checks
// the sink's flow stats carry the exact arithmetic delay.
func TestForwarderDelivery(t *testing.T) {
	leaktest.Check(t)
	clk := transport.NewVirtualClock()
	fs := line3(t, clk, 0.001, 0)

	const flow = 42
	if err := fs[0].Send(2, flow, 8192); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery at node 2", func() bool { return fs[2].Snapshot().Delivered == 1 })
	flows := fs[2].Flows()
	if len(flows) != 1 || flows[0].FlowID != flow || flows[0].Src != 0 {
		t.Fatalf("sink flows = %+v", flows)
	}
	// Two hops at 1ms emulated each; the manual clock never advances, so
	// the real-transit term is exactly zero.
	if d := flows[0].MeanDelay(); math.Abs(d-0.002) > 1e-12 {
		t.Fatalf("delay %.6f, want 0.002", d)
	}
	if got := fs[1].Snapshot().Forwarded; got != 1 {
		t.Fatalf("relay forwarded %v packets, want 1", got)
	}
	if s := fs[0].Snapshot(); s.Origin != 1 || s.Looped+s.TTLExpired+s.DropNoRoute != 0 {
		t.Fatalf("origin snapshot %+v", s)
	}
}

// TestForwarderSelfDelivery: a packet to self sinks immediately, no hops.
func TestForwarderSelfDelivery(t *testing.T) {
	leaktest.Check(t)
	clk := transport.NewVirtualClock()
	fs := line3(t, clk, 0.001, 0)
	if err := fs[1].Send(1, 7, 100); err != nil {
		t.Fatal(err)
	}
	s := fs[1].Snapshot()
	if s.Delivered != 1 || s.Forwarded != 0 {
		t.Fatalf("self-send snapshot %+v", s)
	}
	if d := fs[1].Flows()[0].MeanDelay(); d != 0 {
		t.Fatalf("self delay %v, want 0", d)
	}
}

// TestForwarderTTLExpiry: a hop budget too small for the path burns out
// mid-relay and counts as ttl_expired, not delivery.
func TestForwarderTTLExpiry(t *testing.T) {
	leaktest.Check(t)
	clk := transport.NewVirtualClock()
	fs := line3(t, clk, 0, 2) // needs 2 hops: TTL 2 dies at node 2? No — dies where TTL<=1 on relay.
	// TTL=2: node 1 decrements to 1 and forwards; node 2 is the
	// destination, so this delivers. Route 0->1 with TTL exhausted en
	// route instead: send to 3 (unreachable beyond 2), path 0->1->2,
	// node 2 has no route to 3 — that's noroute. For expiry, rebuild
	// node 2's table to bounce 3 back toward 1 with a fresh TTL check.
	fs[2].Publish([]Entry{
		{Dst: 0, Hops: []graph.NodeID{1}, Weights: []float64{1}},
		{Dst: 1, Hops: []graph.NodeID{1}, Weights: []float64{1}},
		{Dst: 3, Hops: []graph.NodeID{1}, Weights: []float64{1}},
	})
	if err := fs[0].Send(3, 1, 100); err != nil {
		t.Fatal(err)
	}
	// Path: 0 -> 1 (TTL 2 -> 1, forward) -> 2 (TTL 1: expire).
	waitFor(t, "ttl expiry", func() bool { return fs[2].Snapshot().TTLExpired == 1 })
	if d := fs[2].Snapshot().Delivered; d != 0 {
		t.Fatalf("expired packet delivered: %v", d)
	}
}

// TestForwarderLoopDetection: a packet that returns to its origin without
// reaching its destination is a loop-freedom violation — counted, dropped.
func TestForwarderLoopDetection(t *testing.T) {
	leaktest.Check(t)
	clk := transport.NewVirtualClock()
	fs := line3(t, clk, 0, 0)
	// Sabotage: nodes 0 and 1 both claim the other is the way to 3.
	fs[0].Publish([]Entry{{Dst: 3, Hops: []graph.NodeID{1}, Weights: []float64{1}}})
	fs[1].Publish([]Entry{{Dst: 3, Hops: []graph.NodeID{0}, Weights: []float64{1}}})
	if err := fs[0].Send(3, 9, 100); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "loop detection at origin", func() bool { return fs[0].Snapshot().Looped == 1 })
	if s := fs[0].Snapshot(); s.Delivered != 0 {
		t.Fatalf("looped packet delivered: %+v", s)
	}
}

// TestForwarderNoRoute: sends toward an unrouted destination fail fast
// and count.
func TestForwarderNoRoute(t *testing.T) {
	leaktest.Check(t)
	clk := transport.NewVirtualClock()
	mn := transport.NewMemNet()
	f := New(Config{Self: 0, Nodes: 2, Conn: mn.Bind(), Clock: clk})
	defer f.Close()
	if err := f.Send(1, 0, 64); err != ErrNoRoute {
		t.Fatalf("Send without route: %v, want ErrNoRoute", err)
	}
	if s := f.Snapshot(); s.DropNoRoute != 1 {
		t.Fatalf("snapshot %+v", s)
	}
	// Route exists but the peer address was never bound: drop_noaddr.
	f.Publish([]Entry{{Dst: 1, Hops: []graph.NodeID{1}, Weights: []float64{1}}})
	if err := f.Send(1, 0, 64); err != ErrNoRoute {
		t.Fatalf("Send without peer addr: %v, want ErrNoRoute", err)
	}
	if s := f.Snapshot(); s.DropNoAddr != 1 {
		t.Fatalf("snapshot %+v", s)
	}
}

// TestForwarderWeightedSplit publishes a 2-way split and checks the
// observed per-hop packet shares track the bucket shares exactly (every
// flow is one packet, so observed split == bucket share of the flow
// population's hash spread).
func TestForwarderWeightedSplit(t *testing.T) {
	leaktest.Check(t)
	clk := transport.NewVirtualClock()
	mn := transport.NewMemNet()
	f := New(Config{Self: 0, Nodes: 4, Conn: mn.Bind(), Clock: clk})
	defer f.Close()
	sink1, sink2 := mn.Bind(), mn.Bind()
	defer sink1.Close()
	defer sink2.Close()
	f.SetPeer(1, sink1.LocalAddr(), nil)
	f.SetPeer(2, sink2.LocalAddr(), nil)
	f.Publish([]Entry{{Dst: 3, Hops: []graph.NodeID{1, 2}, Weights: []float64{0.75, 0.25}}})

	const flowsN = 20000
	for id := uint64(0); id < flowsN; id++ {
		if err := f.Send(3, id, 64); err != nil {
			t.Fatal(err)
		}
	}
	snap := f.Snapshot()
	if len(snap.Splits) != 2 {
		t.Fatalf("splits %+v", snap.Splits)
	}
	for _, sp := range snap.Splits {
		// 20k hashed flows over 256 buckets: the observed share tracks
		// the bucket share tightly; 2% absolute is the cross-validation
		// gate and holds with wide margin here.
		if math.Abs(sp.Got-sp.Want) > 0.02 {
			t.Errorf("dst %d hop %d: got %.4f want %.4f", sp.Dst, sp.Hop, sp.Got, sp.Want)
		}
	}
}
