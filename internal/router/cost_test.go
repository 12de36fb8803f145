package router

import (
	"math"
	"testing"

	"minroute/internal/des"
	"minroute/internal/graph"
	"minroute/internal/linkcost"
)

// cbr offers count packets from node 0 to dst, one every gap seconds from
// now on.
func cbr(eng *des.Engine, n0 *Node, dst graph.NodeID, count int, gap float64) {
	for i := 0; i < count; i++ {
		eng.Schedule(eng.Now()+float64(i)*gap, func() {
			n0.HandleData(&des.Packet{FlowID: 0, Src: 0, Dst: dst, Bits: 8000, Created: eng.Now()})
		})
	}
}

// onTsTick runs fn after each of n's short-term ticks: a tick re-arms its
// own timer, so a handle that changed across an event means the tick ran.
func onTsTick(eng *des.Engine, n *Node, fn func()) {
	armed := n.tsTimer
	eng.OnEvent = func() {
		if n.tsTimer != armed {
			armed = n.tsTimer
			fn()
		}
	}
}

// TestMeasure checks the one cost-measurement routine against the M/M/1
// marginal μ/(μ−λ)² + τ worked by hand on line3's 1 Mb/s, 1 ms links
// (μ = 125 packets/s).
func TestMeasure(t *testing.T) {
	_, nodes, _ := line3(t, Defaults())
	n := nodes[0]
	p := n.link(1).port
	const mu, tau = 125.0, 1e-3
	for _, tc := range []struct {
		name    string
		packets int64
		window  float64
		want    float64
		ok      bool
	}{
		{"idle link", 0, 2, 1/mu + tau, true},
		{"half load", 125, 2, mu/(62.5*62.5) + tau, true},
		{"above the cap", 1000, 2, mu/(12.5*12.5) + tau, true}, // held at 0.9·μ = 112.5
		{"zero-length window", 40, 0, 0, false},
	} {
		got, ok := n.measure(p, tc.packets, tc.window)
		if ok != tc.ok || math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: measure(%d packets, %v s) = %v, %v; want %v, %v",
				tc.name, tc.packets, tc.window, got, ok, tc.want, tc.ok)
		}
	}
	if got, want := n.costAt(p, 0), linkcost.MM1Marginal(0, mu, tau); got != want {
		t.Errorf("idle cost = %v, want %v", got, want)
	}
}

// TestRestartClearsLinkState loads the middle node's links, crashes and
// restarts it, and checks every link record is as a first boot leaves it:
// both costs idle, both measurement windows opening at the current counters.
func TestRestartClearsLinkState(t *testing.T) {
	eng, nodes, _ := line3(t, Defaults())
	startAll(eng, nodes, 1)
	cbr(eng, nodes[0], 2, 1000, 0.01)
	eng.Run(12)
	mid := nodes[1]
	if out := mid.link(2); out.port.DataPackets == 0 || out.short <= mid.costAt(out.port, 0) {
		t.Fatalf("link 1→2 not loaded before the crash: %d packets, short cost %v", out.port.DataPackets, out.short)
	}
	mid.Crash()
	eng.Run(13)
	mid.Restart()
	if mid.lastTl != eng.Now() {
		t.Errorf("lastTl = %v after restart at %v", mid.lastTl, eng.Now())
	}
	for _, l := range mid.links {
		idle := mid.costAt(l.port, 0)
		if l.short != idle || l.long.Value() != idle {
			t.Errorf("link to %d: short %v, long %v, want idle %v", l.to, l.short, l.long.Value(), idle)
		}
		if l.tsSnap != l.port.DataPackets || l.tlSnap != l.port.DataPackets {
			t.Errorf("link to %d: snapshots %d/%d, port counter %d", l.to, l.tsSnap, l.tlSnap, l.port.DataPackets)
		}
	}
}
