package gallager

import (
	"math"
	"testing"
	"testing/quick"

	"minroute/internal/alloc"
	"minroute/internal/dijkstra"
	"minroute/internal/fluid"
	"minroute/internal/graph"
	"minroute/internal/linkcost"
	"minroute/internal/topo"
)

const pktBits = 8000.0

// diamond builds s(0) -> {a(1), b(2)} -> d(3) with capacities capA on the
// a-branch and capB on the b-branch.
func diamond(t testing.TB, capA, capB float64) *graph.Graph {
	t.Helper()
	g := graph.New()
	for _, n := range []string{"s", "a", "b", "d"} {
		g.AddNode(n)
	}
	for _, e := range []struct {
		a, b graph.NodeID
		c    float64
	}{{0, 1, capA}, {1, 3, capA}, {0, 2, capB}, {2, 3, capB}} {
		if err := g.AddDuplex(e.a, e.b, e.c, 0.0005); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// bruteForceDiamond finds the optimal split p (fraction on the a-branch) by
// golden-section search on the convex total delay.
func bruteForceDiamond(g *graph.Graph, rate float64) (float64, float64) {
	eval := func(p float64) float64 {
		rt := fluid.RoutingFunc(func(i, j graph.NodeID) alloc.Split {
			if j != 3 {
				return nil
			}
			switch i {
			case 0:
				return alloc.Split{{Hop: 1, Frac: p}, {Hop: 2, Frac: 1 - p}}
			case 1, 2:
				return alloc.Single(3)
			}
			return nil
		})
		cfg := fluid.Config{Graph: g, MeanPacketBits: pktBits, Flows: []topo.Flow{{Src: 0, Dst: 3, Rate: rate}}}
		res, err := fluid.Solve(cfg, rt)
		if err != nil {
			return math.Inf(1)
		}
		d, err := fluid.Delays(cfg, rt, res)
		if err != nil {
			return math.Inf(1)
		}
		return d.TotalDelay
	}
	lo, hi := 0.0, 1.0
	phi := (math.Sqrt(5) - 1) / 2
	for i := 0; i < 100; i++ {
		m1 := hi - phi*(hi-lo)
		m2 := lo + phi*(hi-lo)
		if eval(m1) < eval(m2) {
			hi = m2
		} else {
			lo = m1
		}
	}
	p := (lo + hi) / 2
	return p, eval(p)
}

func TestOPTMatchesBruteForceOnDiamond(t *testing.T) {
	g := diamond(t, 10e6, 5e6) // a-branch twice as fast
	rate := 8e6                // heavy enough that one branch cannot carry it well
	flows := []topo.Flow{{Src: 0, Dst: 3, Rate: rate}}
	res, err := Solve(g, flows, Options{MeanPacketBits: pktBits})
	if err != nil {
		t.Fatal(err)
	}
	_, wantDT := bruteForceDiamond(g, rate)
	if rel := math.Abs(res.TotalDelay-wantDT) / wantDT; rel > 0.01 {
		t.Fatalf("OPT D_T = %v, brute force %v (rel %v)", res.TotalDelay, wantDT, rel)
	}
	// The optimum puts more traffic on the fast branch.
	var p float64
	for _, sh := range res.Phi[3][0] {
		if sh.Hop == 1 {
			p = sh.Frac
		}
	}
	if p <= 0.5 || p >= 1 {
		t.Fatalf("split on fast branch = %v, want in (0.5, 1)", p)
	}
}

func TestOPTNeverWorseThanShortestPath(t *testing.T) {
	for _, build := range []func() *topo.Network{topo.CAIRN, topo.NET1} {
		n := build()
		cfg := fluid.Config{Graph: n.Graph, Flows: n.Flows, MeanPacketBits: pktBits}

		// Shortest-path routing under idle marginal costs.
		idle := func(l *graph.Link) float64 {
			return linkcost.MM1Marginal(0, linkcost.KnownMu(l.Capacity, pktBits), l.PropDelay)
		}
		view := dijkstra.GraphView{G: n.Graph, Cost: idle}
		sp := fluid.RoutingFunc(func(i, j graph.NodeID) alloc.Split {
			nh := dijkstra.Run(view, i).NextHop(j)
			if nh == graph.None {
				return nil
			}
			return alloc.Single(nh)
		})
		spRes, err := fluid.Solve(cfg, sp)
		if err != nil {
			t.Fatal(err)
		}
		spDelay, err := fluid.Delays(cfg, sp, spRes)
		if err != nil {
			t.Fatal(err)
		}

		opt, err := Solve(n.Graph, n.Flows, Options{MeanPacketBits: pktBits})
		if err != nil {
			t.Fatal(err)
		}
		if opt.TotalDelay > spDelay.TotalDelay*(1+1e-9) {
			t.Fatalf("OPT D_T %v worse than SP D_T %v", opt.TotalDelay, spDelay.TotalDelay)
		}
	}
}

func TestOPTConvergesOnCAIRN(t *testing.T) {
	n := topo.CAIRN()
	res, err := Solve(n.Graph, n.Flows, Options{MeanPacketBits: pktBits})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("OPT did not converge in %d iterations", res.Iterations)
	}
	// The final routing must be evaluable (loop-free) with utilization < 1.
	cfg := fluid.Config{Graph: n.Graph, Flows: n.Flows, MeanPacketBits: pktBits}
	fres, err := fluid.Solve(cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	d, err := fluid.Delays(cfg, res, fres)
	if err != nil {
		t.Fatal(err)
	}
	if d.MaxUtilization >= 1 {
		t.Fatalf("max utilization %v at OPT", d.MaxUtilization)
	}
	if fres.Lost != 0 {
		t.Fatalf("OPT loses traffic: %v", fres.Lost)
	}
}

func TestOPTSatisfiesOptimalityConditions(t *testing.T) {
	// At the optimum, the marginal distances through next hops carrying
	// flow are equalized (paper Eqs. 10-12). Allow a modest spread: we run
	// a finite iteration on a clamped cost function.
	n := topo.NET1()
	res, err := Solve(n.Graph, n.Flows, Options{MeanPacketBits: pktBits, MaxIters: 5000})
	if err != nil {
		t.Fatal(err)
	}
	spread, err := Equalization(n.Graph, n.Flows, res, pktBits)
	if err != nil {
		t.Fatal(err)
	}
	// Spread is in seconds of marginal delay; idle marginal is ~8e-4 s.
	if spread > 5e-4 {
		t.Fatalf("marginal-distance spread at optimum = %v s, want < 5e-4", spread)
	}
}

func TestOPTUsesMultipleNextHops(t *testing.T) {
	// Under load, the optimum on NET1 must split at least one (i, j) over
	// several next hops — single-path routing is not optimal.
	n := topo.NET1()
	res, err := Solve(n.Graph, n.Flows, Options{MeanPacketBits: pktBits})
	if err != nil {
		t.Fatal(err)
	}
	multi := 0
	for j := range res.Phi {
		for i := range res.Phi[j] {
			used := 0
			for _, sh := range res.Phi[j][i] {
				if sh.Frac > 0.01 {
					used++
				}
			}
			if used > 1 {
				multi++
			}
		}
	}
	if multi == 0 {
		t.Fatal("OPT never splits traffic; expected multipath at optimum")
	}
}

func TestOPTZeroTraffic(t *testing.T) {
	n := topo.NET1()
	res, err := Solve(n.Graph, nil, Options{MeanPacketBits: pktBits})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDelay != 0 {
		t.Fatalf("D_T with no flows = %v, want 0", res.TotalDelay)
	}
}

func TestOPTPropertyLoopFreeAndNoLoss(t *testing.T) {
	check := func(seed uint64, n8 uint8) bool {
		nn := int(n8%6) + 4
		g := topo.Random(seed, nn, nn, 5e6, 10e6, 1e-3)
		flows := []topo.Flow{
			{Src: 0, Dst: graph.NodeID(nn - 1), Rate: 2e6},
			{Src: graph.NodeID(nn - 1), Dst: 0, Rate: 1e6},
			{Src: graph.NodeID(nn / 2), Dst: 0, Rate: 1.5e6},
		}
		res, err := Solve(g, flows, Options{MeanPacketBits: pktBits, MaxIters: 400})
		if err != nil {
			return false
		}
		cfg := fluid.Config{Graph: g, Flows: flows, MeanPacketBits: pktBits}
		fres, err := fluid.Solve(cfg, res)
		if err != nil {
			return false // would indicate a loop: blocking failed
		}
		return fres.Lost == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkOPTCAIRN(b *testing.B) {
	n := topo.CAIRN()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(n.Graph, n.Flows, Options{MeanPacketBits: pktBits, MaxIters: 200}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSecondDerivativeAccelerationConverges(t *testing.T) {
	n := topo.NET1()
	plain, err := Solve(n.Graph, n.Flows, Options{MeanPacketBits: pktBits})
	if err != nil {
		t.Fatal(err)
	}
	accel, err := Solve(n.Graph, n.Flows, Options{MeanPacketBits: pktBits, SecondDerivative: true})
	if err != nil {
		t.Fatal(err)
	}
	// Both must reach (essentially) the same optimum.
	if rel := math.Abs(accel.TotalDelay-plain.TotalDelay) / plain.TotalDelay; rel > 0.01 {
		t.Fatalf("second-derivative optimum %v differs from plain %v (rel %v)",
			accel.TotalDelay, plain.TotalDelay, rel)
	}
	if !accel.Converged {
		t.Fatal("second-derivative variant did not converge")
	}
}

func TestSecondDerivativeOnDiamondMatchesBruteForce(t *testing.T) {
	g := diamond(t, 10e6, 5e6)
	rate := 8e6
	flows := []topo.Flow{{Src: 0, Dst: 3, Rate: rate}}
	res, err := Solve(g, flows, Options{MeanPacketBits: pktBits, SecondDerivative: true})
	if err != nil {
		t.Fatal(err)
	}
	_, wantDT := bruteForceDiamond(g, rate)
	if rel := math.Abs(res.TotalDelay-wantDT) / wantDT; rel > 0.01 {
		t.Fatalf("accelerated OPT D_T = %v, brute force %v (rel %v)", res.TotalDelay, wantDT, rel)
	}
}
