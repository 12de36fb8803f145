package dataplane

import (
	"runtime"
	"testing"

	"minroute/internal/graph"
	"minroute/internal/leaktest"
	"minroute/internal/transport"
)

// TestForwarderAllocBudget pins the live data plane's per-packet cost on
// the in-memory fabric (make codec-guard): a packet allocates nothing on
// its way through the forwarders and the MemNet ports between them.
//
//   - Send toward a neighbour: 0 allocs/op, the port's write and its
//     reader's read included.
//   - A packet relayed through handle and delivered at the sink: 0
//     allocs/op, on flows the sink has seen (the first packet of a new
//     flow allocates its FlowStat).
//   - Self-delivery: at most 1, the packet OnDeliver may keep.
//
// testing.AllocsPerRun counts every goroutine's allocations, so the
// forwarders' receive loops are measured too. It skips under -race, whose
// alloc accounting is unreliable.
func TestForwarderAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under the race detector")
	}
	leaktest.Check(t)
	clk := transport.NewVirtualClock()
	const flow, bits = 5, 8192

	// Send toward a neighbour whose port the test drains itself.
	mn := transport.NewMemNet()
	src := New(Config{Self: 0, Nodes: 2, Conn: mn.Bind(), Clock: clk})
	defer src.Close()
	tap := mn.Bind()
	defer tap.Close()
	src.SetPeer(1, tap.LocalAddr(), nil)
	src.Publish([]Entry{{Dst: 1, Hops: []graph.NodeID{1}, Weights: []float64{1}}})
	buf := make([]byte, transport.MaxDatagram)
	if n := testing.AllocsPerRun(500, func() {
		if err := src.Send(1, flow, bits); err != nil {
			t.Fatal(err)
		}
		if _, err := tap.ReadFrom(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Send toward a neighbour: %.1f allocs/op, want 0", n)
	}

	// Relay and delivery, on the receive loops of a 0-1-2 line.
	fs := line3(t, clk, 0.001, 0)
	sink := fs[2]
	await := func(want float64) {
		for i := 0; sink.delivered.Value() < want; i++ {
			if i == 10_000_000 {
				t.Fatalf("sink delivered %v packets, want %v", sink.delivered.Value(), want)
			}
			runtime.Gosched()
		}
	}
	// The first packet registers the flow; the port slots and encode
	// buffers grow on the first few. AllocsPerRun's own warm-up run is one
	// packet, so warm up here.
	for i := 0; i < 64; i++ {
		if err := fs[0].Send(2, flow, bits); err != nil {
			t.Fatal(err)
		}
		await(float64(i + 1))
	}
	if n := testing.AllocsPerRun(500, func() {
		want := sink.delivered.Value() + 1
		if err := fs[0].Send(2, flow, bits); err != nil {
			t.Fatal(err)
		}
		await(want)
	}); n != 0 {
		t.Errorf("relay and delivery: %.1f allocs/op, want 0", n)
	}

	if err := fs[1].Send(1, flow, bits); err != nil { // registers the flow
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(500, func() {
		if err := fs[1].Send(1, flow, bits); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("self-delivery: %.1f allocs/op, want <= 1", n)
	}
}
