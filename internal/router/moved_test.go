package router_test

import (
	"slices"
	"testing"

	"minroute/internal/alloc"
	"minroute/internal/core"
	"minroute/internal/experiments"
	"minroute/internal/graph"
	"minroute/internal/topo"
)

// TestAllocationsFollowEverySuccessorChange is the node's half of the
// moved-set proof obligation: refreshAllocations looks only at the
// destinations MPDA says it re-derived, so after every event of a run —
// each control packet, each timer tick, and link failures, recoveries, a
// crash and a restart injected along the way — the set every destination's
// routing parameters were built from must still be the protocol's S_j, for
// all j and not only the reported ones. Non-empty parameters must also be
// keyed by exactly that set: the forwarding pick walks it as their keys.
// (That IH then runs for the same destinations in the same order as a scan
// of all of them is what TestCostTrajectoryPinned holds.)
func TestAllocationsFollowEverySuccessorChange(t *testing.T) {
	opt := core.DefaultOptions()
	opt.Seed = experiments.Quick.Seed
	net := core.Build(topo.NET1(), opt)
	n, checks := net.Graph.NumNodes(), 0
	check := func() {
		checks++
		for _, id := range net.Graph.Nodes() {
			node := net.Nodes[id]
			if node.Down() {
				continue // its protocol state is abandoned until Restart
			}
			for j := graph.NodeID(0); int(j) < n; j++ {
				if want, got := node.Protocol().Successors(j), node.BuiltFrom(j); j != id && !slices.Equal(got, want) {
					t.Fatalf("t=%.6f node %d: parameters for %d built from %v, S_j = %v", net.Eng.Now(), id, j, got, want)
				}
				if phi := node.Fractions(j); len(phi) > 0 {
					if err := alloc.Validate(phi, node.Protocol().Successors(j)); err != nil {
						t.Fatalf("t=%.6f node %d: parameters for %d: %v", net.Eng.Now(), id, j, err)
					}
				}
			}
		}
	}
	net.Eng.OnEvent = check
	net.Start()
	check()
	at := 0.0
	for _, fault := range []func(){
		func() { net.FailLink(0, 1) },
		func() { net.CrashNode(4) },
		func() { net.FailLink(2, 3) },
		func() { net.RestoreLink(0, 1) },
		func() { net.RestartNode(4) },
		func() { net.RestoreLink(2, 3) },
	} {
		at += 2.5 // with Tl = 10 s and random phases, ticks land between the faults
		net.RunUntil(at)
		fault()
		check()
	}
	net.RunUntil(at + 12)
	if checks < 10_000 {
		t.Fatalf("only %d events checked", checks)
	}
}
