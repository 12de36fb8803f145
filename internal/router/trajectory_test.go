package router_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"minroute/internal/alloc"
	"minroute/internal/core"
	"minroute/internal/eventq"
	"minroute/internal/experiments"
	"minroute/internal/graph"
	"minroute/internal/router"
	"minroute/internal/topo"
)

// costTrajectory runs NET1 at experiments.Quick lengths under cfg and
// returns the SHA-256 of the control half's whole observable trajectory:
// after every Ts or Tl tick of a node, one line per attached neighbour with
// the short-term cost and the long-term cost behind the advertised one (the
// smoother's value before the 0.1 µs quantisation, so strictly finer than
// what MPDA is told); and every OnAlloc call with its φ. All floats are
// printed %.17g, which round-trips a float64 exactly.
func costTrajectory(cfg router.Config) string {
	opt := core.DefaultOptions()
	opt.Router = cfg
	opt.Seed = experiments.Quick.Seed
	opt.Warmup = experiments.Quick.Warmup
	opt.Duration = experiments.Quick.Duration
	net := core.Build(topo.NET1(), opt)

	h := sha256.New()
	ids := net.Graph.Nodes()
	// A tick re-arms its own timer, so a handle that differs from the one
	// seen after the previous event means that node's tick just ran.
	type timers struct{ ts, tl eventq.Handle }
	seen := make([]timers, len(ids))
	for _, id := range ids {
		id := id
		net.Nodes[id].OnAlloc = func(j graph.NodeID, phi alloc.Split, _ []graph.NodeID) {
			fmt.Fprintf(h, "alloc %.17g %d %d", net.Eng.Now(), id, j)
			for _, sh := range phi {
				fmt.Fprintf(h, " %d:%.17g", sh.Hop, sh.Frac)
			}
			fmt.Fprintln(h)
		}
	}
	net.Eng.OnEvent = func() {
		for i, id := range ids {
			node := net.Nodes[id]
			ts, tl := node.TickTimers()
			if ts == seen[i].ts && tl == seen[i].tl {
				continue
			}
			seen[i] = timers{ts, tl}
			node.VisitLinkCosts(func(k graph.NodeID, short, long float64) {
				fmt.Fprintf(h, "tick %.17g %d %d %.17g %.17g\n", net.Eng.Now(), id, k, short, long)
			})
		}
	}
	net.Run()
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestCostTrajectoryPinned replays testdata/cost_trajectory.hash, which was
// generated at the commit before router.Node's per-neighbour state moved
// from five maps to one link slice: the measured costs, the advertised
// costs and every IH/AH step must stay bit-identical, because a refactor of
// the control half may move the arithmetic but not change it. A deliberate
// change to the cost model regenerates the file from this test's output.
func TestCostTrajectoryPinned(t *testing.T) {
	mp := router.Defaults()
	sp := router.Defaults()
	sp.Mode = router.ModeSP
	sp.CostMeasureWindow = 5
	got := fmt.Sprintf("MP-TL-10-TS-2 %s\nSP-TL-10 %s\n", costTrajectory(mp), costTrajectory(sp))

	want, err := os.ReadFile("testdata/cost_trajectory.hash")
	if err != nil {
		t.Fatalf("%v\ncomputed:\n%s", err, got)
	}
	if strings.TrimSpace(string(want)) != strings.TrimSpace(got) {
		t.Fatalf("cost trajectory moved\nwant:\n%sgot:\n%s", want, got)
	}
}
