package fluid

import (
	"math"
	"testing"
	"testing/quick"

	"minroute/internal/alloc"
	"minroute/internal/dijkstra"
	"minroute/internal/graph"
	"minroute/internal/linkcost"
	"minroute/internal/topo"
)

const pktBits = 8000.0

// lineGraph builds 0-1-2-3 with 1 Mb/s links.
func lineGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New()
	for _, n := range []string{"a", "b", "c", "d"} {
		g.AddNode(n)
	}
	for i := 0; i < 3; i++ {
		if err := g.AddDuplex(graph.NodeID(i), graph.NodeID(i+1), 1e6, 0.001); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// spRouting returns shortest-path (hop count) single-path routing over g.
func spRouting(g *graph.Graph) Routing {
	return RoutingFunc(func(i, j graph.NodeID) alloc.Split {
		view := dijkstra.GraphView{G: g, Cost: func(l *graph.Link) float64 { return 1 }}
		res := dijkstra.Run(view, i)
		nh := res.NextHop(j)
		if nh == graph.None {
			return nil
		}
		return alloc.Single(nh)
	})
}

func TestSolveSingleFlowOnPath(t *testing.T) {
	g := lineGraph(t)
	cfg := Config{Graph: g, MeanPacketBits: pktBits, Flows: []topo.Flow{
		{Name: "f", Src: 0, Dst: 3, Rate: 4e5},
	}}
	res, err := Solve(cfg, spRouting(g))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got := res.Flow(graph.NodeID(i), graph.NodeID(i+1)); got != 4e5 {
			t.Fatalf("flow on %d->%d = %v, want 4e5", i, i+1, got)
		}
	}
	if res.Flow(1, 0) != 0 {
		t.Fatal("reverse link carries traffic")
	}
	// Node traffic: every node on the path carries t = rate; the
	// destination's accumulated arrival equals the offered rate.
	if res.NodeTraffic[3][0] != 4e5 || res.NodeTraffic[3][1] != 4e5 || res.NodeTraffic[3][3] != 4e5 {
		t.Fatalf("node traffic = %v", res.NodeTraffic[3])
	}
	if res.Lost != 0 {
		t.Fatalf("lost = %v", res.Lost)
	}
}

func TestSolveSplitsTraffic(t *testing.T) {
	// Diamond 0->{1,2}->3 split 50/50.
	g := graph.New()
	for _, n := range []string{"s", "u", "v", "d"} {
		g.AddNode(n)
	}
	for _, e := range [][2]graph.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if err := g.AddDuplex(e[0], e[1], 1e6, 0.001); err != nil {
			t.Fatal(err)
		}
	}
	rt := RoutingFunc(func(i, j graph.NodeID) alloc.Split {
		if j != 3 {
			return nil
		}
		switch i {
		case 0:
			return alloc.Split{{Hop: 1, Frac: 0.5}, {Hop: 2, Frac: 0.5}}
		case 1, 2:
			return alloc.Single(3)
		}
		return nil
	})
	cfg := Config{Graph: g, MeanPacketBits: pktBits, Flows: []topo.Flow{{Src: 0, Dst: 3, Rate: 6e5}}}
	res, err := Solve(cfg, rt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow(0, 1) != 3e5 || res.Flow(0, 2) != 3e5 {
		t.Fatalf("split flows = %v, %v", res.Flow(0, 1), res.Flow(0, 2))
	}
	if res.NodeTraffic[3][3] != 6e5 {
		t.Fatalf("arrivals at destination = %v", res.NodeTraffic[3][3])
	}

	// Delay: both two-hop paths are symmetric, so W equals one path's delay.
	d, err := Delays(cfg, rt, res)
	if err != nil {
		t.Fatal(err)
	}
	lambda := 3e5 / pktBits
	mu := 1e6 / pktBits
	want := 2 * linkcost.MM1Delay(lambda, mu, 0.001)
	if math.Abs(d.FlowDelay[0]-want) > 1e-12 {
		t.Fatalf("flow delay = %v, want %v", d.FlowDelay[0], want)
	}
}

func TestSolveCycleDetected(t *testing.T) {
	g := lineGraph(t)
	rt := RoutingFunc(func(i, j graph.NodeID) alloc.Split {
		if j != 3 {
			return nil
		}
		switch i {
		case 0:
			return alloc.Single(1)
		case 1:
			return alloc.Single(0) // loop 0<->1
		}
		return nil
	})
	cfg := Config{Graph: g, MeanPacketBits: pktBits, Flows: []topo.Flow{{Src: 0, Dst: 3, Rate: 1e5}}}
	if _, err := Solve(cfg, rt); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestSolveLostTraffic(t *testing.T) {
	g := lineGraph(t)
	rt := RoutingFunc(func(i, j graph.NodeID) alloc.Split {
		if i == 0 && j == 3 {
			return alloc.Single(1)
		}
		return nil // router 1 has no route: traffic dies there
	})
	cfg := Config{Graph: g, MeanPacketBits: pktBits, Flows: []topo.Flow{{Src: 0, Dst: 3, Rate: 2e5}}}
	res, err := Solve(cfg, rt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost != 2e5 {
		t.Fatalf("lost = %v, want 2e5", res.Lost)
	}
	d, err := Delays(cfg, rt, res)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(d.FlowDelay[0], 1) {
		t.Fatalf("unroutable flow delay = %v, want +Inf", d.FlowDelay[0])
	}
}

// A split whose every share is zero forwards nothing: it is no route, so
// its traffic counts as Lost and its delay is +Inf, as for an empty split.
func TestSolveZeroShareSplitIsNoRoute(t *testing.T) {
	g := graph.New()
	g.AddNode("a")
	g.AddNode("b")
	if err := g.AddDuplex(0, 1, 1e7, 0.001); err != nil {
		t.Fatal(err)
	}
	rt := RoutingFunc(func(i, j graph.NodeID) alloc.Split {
		if i == 0 && j == 1 {
			return alloc.Split{{Hop: 1, Frac: 0}}
		}
		return nil
	})
	cfg := Config{Graph: g, MeanPacketBits: pktBits, Flows: []topo.Flow{{Src: 0, Dst: 1, Rate: 1e6}}}
	res, err := Solve(cfg, rt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost != 1e6 {
		t.Fatalf("lost = %v, want 1e6", res.Lost)
	}
	if f := res.Flow(0, 1); f != 0 {
		t.Fatalf("flow on a->b = %v, want 0", f)
	}
	d, err := Delays(cfg, rt, res)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(d.FlowDelay[0], 1) {
		t.Fatalf("zero-share flow delay = %v, want +Inf", d.FlowDelay[0])
	}
}

// The recursion rejects a cyclic routing graph, as Solve does.
func TestDistancesCycleDetected(t *testing.T) {
	g := lineGraph(t)
	cfg := Config{Graph: g, MeanPacketBits: pktBits}
	res, err := Solve(cfg, spRouting(g))
	if err != nil {
		t.Fatal(err)
	}
	loop := RoutingFunc(func(i, j graph.NodeID) alloc.Split {
		switch {
		case j != 3:
			return nil
		case i == 1:
			return alloc.Single(2)
		case i == 2:
			return alloc.Single(1) // loop 1<->2
		}
		return alloc.Single(i + 1)
	})
	if _, err := Price(cfg, res).Distances(loop, 3, func(l LinkPrice) float64 { return l.Marginal }); err == nil {
		t.Fatal("cycle not detected by the recursion")
	}
	if _, err := Delays(cfg, loop, res); err == nil {
		t.Fatal("cycle not detected by Delays")
	}
}

func TestDelaysSingleLinkMatchesTheory(t *testing.T) {
	g := graph.New()
	g.AddNode("a")
	g.AddNode("b")
	if err := g.AddDuplex(0, 1, 1e6, 0.002); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Graph: g, MeanPacketBits: pktBits, Flows: []topo.Flow{{Src: 0, Dst: 1, Rate: 5e5}}}
	rt := spRouting(g)
	res, err := Solve(cfg, rt)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Delays(cfg, rt, res)
	if err != nil {
		t.Fatal(err)
	}
	lambda := 5e5 / pktBits
	mu := 1e6 / pktBits
	if want := linkcost.MM1Delay(lambda, mu, 0.002); math.Abs(d.FlowDelay[0]-want) > 1e-12 {
		t.Fatalf("delay = %v, want %v", d.FlowDelay[0], want)
	}
	if want := linkcost.MM1Total(lambda, mu, 0.002); math.Abs(d.TotalDelay-want) > 1e-12 {
		t.Fatalf("D_T = %v, want %v", d.TotalDelay, want)
	}
	if math.Abs(d.MaxUtilization-0.5) > 1e-12 {
		t.Fatalf("max utilization = %v, want 0.5", d.MaxUtilization)
	}
}

func TestSolveValidation(t *testing.T) {
	if _, err := Solve(Config{}, spRouting(graph.New())); err == nil {
		t.Fatal("nil graph accepted")
	}
	g := lineGraph(t)
	if _, err := Solve(Config{Graph: g, MeanPacketBits: 0}, spRouting(g)); err == nil {
		t.Fatal("zero packet size accepted")
	}
	if _, err := Solve(Config{Graph: g, MeanPacketBits: 1, Flows: []topo.Flow{{Rate: -1}}}, spRouting(g)); err == nil {
		t.Fatal("negative rate accepted")
	}
}

// Property: on random graphs with shortest-path routing, traffic is
// conserved: arrivals at each destination equal the offered load toward it.
func TestPropertyConservation(t *testing.T) {
	check := func(seed uint64, n8 uint8) bool {
		n := int(n8%8) + 3
		g := topo.Random(seed, n, n, 1e6, 1e7, 1e-3)
		flows := []topo.Flow{
			{Src: 0, Dst: graph.NodeID(n - 1), Rate: 1e5},
			{Src: graph.NodeID(n - 1), Dst: 0, Rate: 2e5},
			{Src: graph.NodeID(n / 2), Dst: 0, Rate: 3e5},
		}
		cfg := Config{Graph: g, MeanPacketBits: pktBits, Flows: flows}
		rt := spRouting(g)
		res, err := Solve(cfg, rt)
		if err != nil {
			return false
		}
		if res.Lost != 0 {
			return false
		}
		// Arrivals at each destination must equal offered load toward it.
		byDest := map[graph.NodeID]float64{}
		for _, f := range flows {
			byDest[f.Dst] += f.Rate
		}
		for dst, want := range byDest {
			if math.Abs(res.NodeTraffic[dst][dst]-want) > 1e-6 {
				return false
			}
		}
		// Link flows are consistent with node traffic: total on all links
		// equals sum over nodes of forwarded traffic.
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSolveCAIRN(b *testing.B) {
	n := topo.CAIRN()
	cfg := Config{Graph: n.Graph, MeanPacketBits: pktBits, Flows: n.Flows}
	rt := spRouting(n.Graph)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(cfg, rt); err != nil {
			b.Fatal(err)
		}
	}
}
