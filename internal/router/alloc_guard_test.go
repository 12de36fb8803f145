package router

import (
	"slices"
	"testing"

	"minroute/internal/alloc"
	"minroute/internal/des"
	"minroute/internal/graph"
	"minroute/internal/topo"
)

// TestHandleDataAllocBudget holds the simulated forwarding decision to no
// allocation in every mode. On a converged 4-ring, where node 0 reaches
// node 2 through two equal-cost successors, a data packet leaves node 0,
// crosses a link, is relayed and is delivered: the pick over φ (MP,
// STATIC) or the best successor (SP) runs twice per packet on storage that
// already exists. The timers are off, so nothing
// but the packet runs between two counts.
func TestHandleDataAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under the race detector")
	}
	for _, mode := range []Mode{ModeMP, ModeSP, ModeStatic} {
		cfg := Defaults()
		cfg.Mode = mode
		cfg.Tl, cfg.Ts = 0, 0
		eng, nodes, g := wire(t, topo.Ring(4, 1e7, 1e-3), cfg)
		if mode == ModeStatic {
			for i := 0; i < g.NumNodes(); i++ {
				phi := make([]alloc.Split, g.NumNodes())
				phi[2] = alloc.Single(2)
				if i == 0 {
					phi[2] = alloc.Split{{Hop: 1, Frac: 0.5}, {Hop: 3, Frac: 0.5}}
				}
				nodes[graph.NodeID(i)].InstallStatic(phi)
			}
		}
		startAll(eng, nodes, 5)
		delivered := 0
		nodes[2].OnArrive = func(*des.Packet) { delivered++ }
		send := func() {
			pkt := eng.NewPacket()
			*pkt = des.Packet{Src: 0, Dst: 2, Bits: 8000, Created: eng.Now()}
			nodes[0].HandleData(pkt)
			for eng.Pending() > 0 {
				eng.Step()
			}
		}
		// Warm the packet pool and the event queue to steady state.
		for i := 0; i < 256; i++ {
			send()
		}
		if got := testing.AllocsPerRun(1000, send); got != 0 {
			t.Errorf("%v: %.0f allocs per forwarded packet, want 0", mode, got)
		}
		if want := 256 + 1 + 1000; delivered != want { // AllocsPerRun warms up once
			t.Errorf("%v: delivered %d packets, want %d", mode, delivered, want)
		}
		if mode != ModeSP && (nodes[1].ForwardedPackets == 0 || nodes[3].ForwardedPackets == 0) {
			t.Errorf("%v: relays forwarded %d and %d packets, want both paths used", mode, nodes[1].ForwardedPackets, nodes[3].ForwardedPackets)
		}
	}
}

// TestAllocationStepsAllocBudget holds IH and AH to the storage φ already
// has. On a converged NET1 with the clocks off, every router rebuilds each
// φ_j by IH over S_j and runs a Ts tick's AH pass, with the short-term cost
// of its first link raised so that AH moves traffic. Neither allocates,
// under the damped AH and under the literal one.
func TestAllocationStepsAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under the race detector")
	}
	for _, damping := range []float64{Defaults().AHDamping, 0} {
		cfg := Defaults()
		cfg.Tl, cfg.Ts = 0, 0
		cfg.AHDamping = damping
		eng, nodes, g := wire(t, topo.NET1().Graph, cfg)
		startAll(eng, nodes, 5)
		moved := 0
		for _, id := range g.Nodes() {
			a := nodes[id].agent
			a.links[0].short *= 3
			rebuild := func() {
				for j := range a.phi {
					if succ := a.proto.Successors(graph.NodeID(j)); len(succ) > 0 {
						a.buildIH(graph.NodeID(j), succ)
					}
				}
			}
			if got := testing.AllocsPerRun(100, rebuild); got != 0 {
				t.Errorf("damping %v, router %d: %.0f allocs per IH rebuild of every φ_j, want 0", damping, id, got)
			}
			rebuild()
			before := make([]alloc.Split, len(a.phi))
			for j, phi := range a.phi {
				before[j] = slices.Clone(phi)
			}
			a.stepAH()
			for j := range a.phi {
				if !slices.Equal(before[j], a.phi[j]) {
					moved++
				}
			}
			if got := testing.AllocsPerRun(100, a.stepAH); got != 0 {
				t.Errorf("damping %v, router %d: %.0f allocs per AH pass, want 0", damping, id, got)
			}
		}
		if moved == 0 {
			t.Errorf("damping %v: no AH step moved traffic: the budget was vacuous", damping)
		}
	}
}
