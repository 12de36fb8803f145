package router

import (
	"math"
	"testing"

	"minroute/internal/alloc"
	"minroute/internal/des"
	"minroute/internal/graph"
	"minroute/internal/linkcost"
	"minroute/internal/rng"
)

// TestCrashAndRestart walks a node through the full outage lifecycle: while
// down it drops data, ignores control and link events, and reports Down;
// Restart boots a fresh protocol instance and the network reconverges.
func TestCrashAndRestart(t *testing.T) {
	eng, nodes, _ := line3(t, Defaults())
	startAll(eng, nodes, 5)
	mid := nodes[1]
	mid.Crash()
	mid.Crash() // idempotent
	if !mid.Down() {
		t.Fatal("Down() = false after Crash")
	}
	mid.HandleData(&des.Packet{FlowID: 0, Src: 0, Dst: 2, Bits: 800})
	if mid.DroppedDown != 1 {
		t.Fatalf("DroppedDown = %d, want 1", mid.DroppedDown)
	}
	mid.HandleControl(&des.Packet{Control: []byte{1, 2, 3}}) // ignored, no panic
	mid.LinkFailed(0)                                        // ignored
	mid.LinkRecovered(0)                                     // ignored
	// Neighbors observe the crash as link failures.
	nodes[0].LinkFailed(1)
	nodes[2].LinkFailed(1)
	eng.Run(eng.Now() + 2)
	if !math.IsInf(nodes[0].Protocol().Dist(2), 1) {
		t.Fatal("route survived the crash of its only relay")
	}

	mid.Restart()
	mid.Restart() // idempotent on an up node
	if mid.Down() {
		t.Fatal("Down() = true after Restart")
	}
	nodes[0].LinkRecovered(1)
	nodes[2].LinkRecovered(1)
	eng.Run(eng.Now() + 10)
	if math.IsInf(nodes[0].Protocol().Dist(2), 1) {
		t.Fatal("network did not reconverge after restart")
	}
	delivered := 0
	nodes[2].OnArrive = func(pkt *des.Packet) { delivered++ }
	nodes[0].HandleData(&des.Packet{FlowID: 0, Src: 0, Dst: 2, Bits: 8000, Created: eng.Now()})
	eng.Run(eng.Now() + 1)
	if delivered != 1 {
		t.Fatalf("delivered %d through the restarted node, want 1", delivered)
	}
}

func TestLinkRecoveredUnknownPortIgnored(t *testing.T) {
	eng, nodes, _ := line3(t, Defaults())
	startAll(eng, nodes, 5)
	nodes[0].LinkRecovered(2) // node 0 has no port to 2; must be a no-op
	_ = eng
}

// TestStaticRouteToMissingPortDrops installs a static next hop the node has
// no port for: the packet is a no-route drop, not a panic.
func TestStaticRouteToMissingPortDrops(t *testing.T) {
	cfg := Defaults()
	cfg.Mode = ModeStatic
	cfg.Tl, cfg.Ts = 0, 0
	eng, nodes, g := line3(t, cfg)
	phi := make([]alloc.Split, g.NumNodes())
	phi[2] = alloc.Single(2) // node 0 is not adjacent to 2
	nodes[0].InstallStatic(phi)
	startAll(eng, nodes, 1)
	nodes[0].HandleData(&des.Packet{FlowID: 0, Src: 0, Dst: 2, Bits: 800})
	if nodes[0].DroppedNoRoute != 1 {
		t.Fatalf("DroppedNoRoute = %d, want 1", nodes[0].DroppedNoRoute)
	}
	// Fractions in static mode surfaces the installed parameters.
	if f := nodes[0].Fractions(2); len(f) != 1 || f[0] != (alloc.Share{Hop: 2, Frac: 1}) {
		t.Fatalf("static Fractions = %v", f)
	}
}

func TestQueueOverflowCountsDroppedQueue(t *testing.T) {
	eng, nodes, _ := line3(t, Defaults())
	startAll(eng, nodes, 5)
	// Flood far more bits than the port's data band holds before the engine
	// gets a chance to drain anything.
	for i := 0; i < 700; i++ {
		nodes[0].HandleData(&des.Packet{FlowID: 0, Src: 0, Dst: 2, Bits: 8000, Created: eng.Now()})
	}
	if nodes[0].DroppedQueue == 0 {
		t.Fatal("no queue drops despite overflowing the data band")
	}
	if nodes[0].ForwardedPackets == 0 {
		t.Fatal("nothing forwarded before the queue filled")
	}
}

func TestSPModeForwardsPackets(t *testing.T) {
	cfg := Defaults()
	cfg.Mode = ModeSP
	eng, nodes, _ := line3(t, cfg)
	startAll(eng, nodes, 5)
	delivered := 0
	nodes[2].OnArrive = func(pkt *des.Packet) { delivered++ }
	nodes[0].HandleData(&des.Packet{FlowID: 0, Src: 0, Dst: 2, Bits: 8000, Created: eng.Now()})
	eng.Run(eng.Now() + 1)
	if delivered != 1 {
		t.Fatalf("SP delivered %d, want 1", delivered)
	}
	// With the only link out failed, SP has no successor and Fractions is nil.
	nodes[0].LinkFailed(1)
	if f := nodes[0].Fractions(2); f != nil {
		t.Fatalf("SP Fractions after failure = %v, want nil", f)
	}
	nodes[0].HandleData(&des.Packet{FlowID: 0, Src: 0, Dst: 2, Bits: 800})
	if nodes[0].DroppedNoRoute != 1 {
		t.Fatalf("DroppedNoRoute = %d, want 1", nodes[0].DroppedNoRoute)
	}
}

// TestLazyAllocationOnFirstPacket clears a destination's parameters while
// routes exist: the first data packet must rebuild them in the forwarding
// path and announce them through OnAlloc.
func TestLazyAllocationOnFirstPacket(t *testing.T) {
	eng, nodes, _ := line3(t, Defaults())
	startAll(eng, nodes, 5)
	n0 := nodes[0]
	n0.agent.phi[2] = nil
	allocs := 0
	n0.OnAlloc = func(j graph.NodeID, phi alloc.Split, succ []graph.NodeID) { allocs++ }
	n0.HandleData(&des.Packet{FlowID: 0, Src: 0, Dst: 2, Bits: 8000, Created: eng.Now()})
	if allocs == 0 {
		t.Fatal("lazy rebuild did not report through OnAlloc")
	}
	if len(n0.agent.phi[2]) == 0 {
		t.Fatal("parameters not rebuilt on first packet")
	}
	if n0.ForwardedPackets != 1 {
		t.Fatalf("ForwardedPackets = %d, want 1", n0.ForwardedPackets)
	}
}

func TestWeightedPickFPRemainderFallback(t *testing.T) {
	r := rng.New(3)
	// The accumulated weight is far below any plausible draw, so the main
	// loop falls through and the fallback returns the last positive key.
	if got := weightedPick(r, alloc.Split{{Hop: 1, Frac: 1e-18}}); got != 1 {
		t.Fatalf("fallback pick = %v, want 1", got)
	}
	if got := weightedPick(r, alloc.Split{{Hop: 1}, {Hop: 2}}); got != graph.None {
		t.Fatalf("all-zero pick = %v, want None", got)
	}
}

func TestShortDistUnknownNeighborInfinite(t *testing.T) {
	eng, nodes, _ := line3(t, Defaults())
	startAll(eng, nodes, 1)
	a := nodes[1].agent
	d := a.shortDists(2, []graph.NodeID{0, 1, 2, 99})
	if !math.IsInf(d[1], 1) || !math.IsInf(d[3], 1) {
		t.Fatalf("distances %v: through an unmeasured neighbor not infinite", d)
	}
	for i, k := range []graph.NodeID{0, 2} {
		if want := a.proto.Tables().NbrDist(2, k) + a.link(k).short; d[2*i] != want {
			t.Fatalf("distance through %d = %v, want %v", k, d[2*i], want)
		}
	}
}

// TestShortCostSmoothingAndUtilizationCap saturates one link: every full Ts
// window then samples exactly the utilizationCap ceiling, and each tick must
// move the short-term cost shortSmoothing of the way there — approaching the
// ceiling, never passing it.
func TestShortCostSmoothingAndUtilizationCap(t *testing.T) {
	eng, nodes, _ := line3(t, Defaults())
	startAll(eng, nodes, 1)
	n0 := nodes[0]
	l, p := n0.agent.link(1), n0.port(1)
	mu := linkcost.KnownMu(p.Capacity, linkcost.MeanPacketBits)
	ceil := linkcost.MM1Marginal(utilizationCap*mu, mu, p.Prop)
	// 200 packets/s against a service rate of 125: saturated for 20 s.
	cbr(eng, n0, 2, 4000, 0.005)
	prev, ticks := l.short, 0
	onTsTick(eng, n0, func() {
		// The first window is partly idle; every later one is saturated.
		if ticks++; ticks > 1 {
			if want := prev + shortSmoothing*(ceil-prev); l.short != want {
				t.Errorf("tick %d: short cost %v, want %v (EWMA toward the ceiling %v)", ticks, l.short, want, ceil)
			}
		}
		if l.short > ceil {
			t.Errorf("tick %d: short cost %v above the ceiling %v", ticks, l.short, ceil)
		}
		prev = l.short
	})
	eng.Run(20)
	if ticks < 8 {
		t.Fatalf("only %d short-term ticks in 20 s", ticks)
	}
	if l.short < 0.99*ceil {
		t.Fatalf("short cost %v did not approach the ceiling %v", l.short, ceil)
	}
}
