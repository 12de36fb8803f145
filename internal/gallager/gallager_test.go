package gallager

import (
	"math"
	"slices"
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

// shortestPathPhi is single-path routing over idle marginal costs, as a φ
// matrix: phi[j][i] = φ_ij·.
func shortestPathPhi(g *graph.Graph) [][]alloc.Split {
	idle := func(l *graph.Link) float64 {
		return linkcost.MM1Marginal(0, linkcost.KnownMu(l.Capacity, pktBits), l.PropDelay)
	}
	view := dijkstra.GraphView{G: g, Cost: idle}
	n := g.NumNodes()
	phi := make([][]alloc.Split, n)
	for j := range phi {
		phi[j] = make([]alloc.Split, n)
	}
	for i := 0; i < n; i++ {
		sp := dijkstra.Run(view, graph.NodeID(i))
		for j := 0; j < n; j++ {
			if nh := sp.NextHop(graph.NodeID(j)); j != i && nh != graph.None {
				phi[j][i] = alloc.Single(nh)
			}
		}
	}
	return phi
}

// Eq. 5: fluid's recursion weighted by the link marginals gives
// ∂D_T/∂r_ij. Check it against a finite difference of D_T in r_ij with φ
// held fixed, for every routed (i, j) on NET1 and CAIRN, at OPT's φ and at
// shortest-path φ. The difference is Richardson-extrapolated from steps of
// h and 2h packets/s, so it is second-order accurate and needs no negative
// rate; the worst pair agrees to about 1.4e-7 relative (shortest-path φ on
// NET1, at 0.85 peak utilization), inside relTol.
func TestMarginalDistancesMatchFiniteDifference(t *testing.T) {
	const (
		h      = 0.05 // packets/s added to r_ij
		relTol = 1e-6
	)
	for _, net := range []struct {
		name  string
		build func() *topo.Network
	}{{"net1", topo.NET1}, {"cairn", topo.CAIRN}} {
		n := net.build()
		opt, err := Solve(n.Graph, n.Flows, Options{MeanPacketBits: pktBits})
		if err != nil {
			t.Fatal(err)
		}
		sp := shortestPathPhi(n.Graph)
		for _, c := range []struct {
			name string
			phi  [][]alloc.Split
		}{{"opt", opt.Phi}, {"sp", sp}} {
			rt := fluid.RoutingFunc(func(i, j graph.NodeID) alloc.Split { return c.phi[j][i] })
			dt := func(extra []topo.Flow) float64 {
				cfg := fluid.Config{Graph: n.Graph, Flows: append(slices.Clone(n.Flows), extra...), MeanPacketBits: pktBits}
				res, err := fluid.Solve(cfg, rt)
				if err != nil {
					t.Fatal(err)
				}
				return fluid.Price(cfg, res).TotalDelay
			}
			cfg := fluid.Config{Graph: n.Graph, Flows: n.Flows, MeanPacketBits: pktBits}
			res, err := fluid.Solve(cfg, rt)
			if err != nil {
				t.Fatal(err)
			}
			prices := fluid.Price(cfg, res)
			d0 := prices.TotalDelay
			routed := 0
			for j := 0; j < n.Graph.NumNodes(); j++ {
				jid := graph.NodeID(j)
				lam, err := prices.Distances(rt, jid, marginal)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n.Graph.NumNodes(); i++ {
					iid := graph.NodeID(i)
					if iid == jid || math.IsInf(lam[i], 1) {
						continue
					}
					routed++
					step := func(k float64) float64 {
						return (dt([]topo.Flow{{Src: iid, Dst: jid, Rate: k * h * pktBits}}) - d0) / (k * h)
					}
					fd := 2*step(1) - step(2)
					if math.Abs(fd-lam[i]) > relTol*lam[i] {
						t.Errorf("%s %s: ∂D_T/∂r_%d,%d = %.12g by Eq. 5, %.12g by finite difference (rel %.2g)",
							net.name, c.name, i, j, lam[i], fd, math.Abs(fd-lam[i])/lam[i])
					}
				}
			}
			if routed == 0 {
				t.Fatalf("%s %s: no routed pair", net.name, c.name)
			}
			t.Logf("%s %s: %d routed pairs, max utilization %.3f", net.name, c.name, routed, prices.MaxUtilization)
		}
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
