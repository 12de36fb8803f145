package core

import (
	"runtime"
	"testing"

	"minroute/internal/router"
	"minroute/internal/topo"
)

// TestDataPacketsComeFromThePool: traffic sources take their packets from
// the engine's pool, and deliveries give them back, so a warmed-up NET1
// simulation allocates far less than once per delivered packet. A source
// that built each record by value (`rec := des.Packet{…};
// HandleData(&rec)`) runs bit-identically but allocates once per packet and
// grows the pool by one record per delivery; no pinned output sees that.
func TestDataPacketsComeFromThePool(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under the race detector")
	}
	net := topo.NET1()
	n := Build(net, quickOptions(router.ModeMP, 1))
	n.Start()
	n.RunUntil(10)
	delivered := func() (sum int64) {
		for x := range net.Flows {
			sum += n.Delivered(x)
		}
		return sum
	}
	var before, after runtime.MemStats
	d0 := delivered()
	runtime.ReadMemStats(&before)
	n.RunUntil(15)
	runtime.ReadMemStats(&after)
	packets, allocs := delivered()-d0, after.Mallocs-before.Mallocs
	if packets < 10000 {
		t.Fatalf("only %d packets delivered in the window", packets)
	}
	// The control plane allocates about one for every ten packets (LSU
	// encodings); a record per packet would be one for every one.
	if allocs*2 > uint64(packets) {
		t.Errorf("%d allocations for %d delivered packets, want under one per two", allocs, packets)
	}
}
