package router

import (
	"math"
	"testing"

	"minroute/internal/alloc"
	"minroute/internal/des"
	"minroute/internal/graph"
	"minroute/internal/lsu"
	"minroute/internal/rng"
	"minroute/internal/topo"
)

// line3 wires three nodes 0-1-2 with ports and direct (in-memory) LSU
// delivery, returning the nodes.
func line3(t *testing.T, cfg Config) (*des.Engine, map[graph.NodeID]*Node, *graph.Graph) {
	t.Helper()
	g := graph.New()
	for _, n := range []string{"a", "b", "c"} {
		g.AddNode(n)
	}
	for i := 0; i < 2; i++ {
		if err := g.AddDuplex(graph.NodeID(i), graph.NodeID(i+1), 1e6, 1e-3); err != nil {
			t.Fatal(err)
		}
	}
	return wire(t, g, cfg)
}

func wire(t *testing.T, g *graph.Graph, cfg Config) (*des.Engine, map[graph.NodeID]*Node, *graph.Graph) {
	t.Helper()
	eng := des.NewEngine(42)
	nodes := make(map[graph.NodeID]*Node)
	ports := make(map[[2]graph.NodeID]*des.Port)
	for _, id := range g.Nodes() {
		id := id
		nodes[id] = New(eng, id, g.NumNodes(), cfg, func(to graph.NodeID, m *lsu.Msg) {
			p := ports[[2]graph.NodeID{id, to}]
			if p == nil {
				return
			}
			buf, err := m.Marshal()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			p.Send(&des.Packet{FlowID: -1, Bits: float64(len(buf) * 8), Control: buf})
		})
	}
	for _, l := range g.Links() {
		to := nodes[l.To]
		p := des.NewPort(eng, l, 0, func(pkt *des.Packet) {
			if pkt.IsControl() {
				to.HandleControl(pkt)
			} else {
				to.HandleData(pkt)
			}
		})
		ports[[2]graph.NodeID{l.From, l.To}] = p
		nodes[l.From].AttachPort(l.To, p)
	}
	return eng, nodes, g
}

func startAll(eng *des.Engine, nodes map[graph.NodeID]*Node, settle float64) {
	for i := 0; i < len(nodes); i++ {
		nodes[graph.NodeID(i)].Start()
	}
	eng.Run(settle)
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{ModeMP: "MP", ModeSP: "SP", ModeStatic: "STATIC", Mode(9): "mode(9)"} {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", m, got, want)
		}
	}
}

func TestDefaults(t *testing.T) {
	cfg := Defaults()
	if cfg.Mode != ModeMP || cfg.Tl != 10 || cfg.Ts != 2 {
		t.Fatalf("defaults changed: %+v", cfg)
	}
}

func TestProtocolConvergesThroughPorts(t *testing.T) {
	eng, nodes, _ := line3(t, Defaults())
	startAll(eng, nodes, 5)
	// Node 0 must know routes to 1 and 2.
	if nodes[0].Protocol().Dist(2) == math.Inf(1) {
		t.Fatal("node 0 has no distance to node 2")
	}
	if s := nodes[0].Protocol().Successors(2); len(s) != 1 || s[0] != 1 {
		t.Fatalf("successors = %v", s)
	}
}

func TestForwardAndDeliver(t *testing.T) {
	eng, nodes, _ := line3(t, Defaults())
	startAll(eng, nodes, 5)
	delivered := 0
	nodes[2].OnArrive = func(pkt *des.Packet) { delivered++ }
	nodes[0].HandleData(&des.Packet{FlowID: 0, Src: 0, Dst: 2, Bits: 8000, Created: eng.Now()})
	eng.Run(eng.Now() + 1)
	if delivered != 1 {
		t.Fatalf("delivered = %d", delivered)
	}
	if nodes[0].ForwardedPackets == 0 || nodes[1].ForwardedPackets == 0 {
		t.Fatal("forwarding counters not incremented")
	}
}

// TestHopLimitDrop: a packet that arrives at node 0 one step short of the
// limit is forwarded once, then dropped at node 1.
func TestHopLimitDrop(t *testing.T) {
	eng, nodes, _ := line3(t, Defaults())
	startAll(eng, nodes, 5)
	delivered := 0
	nodes[2].OnArrive = func(pkt *des.Packet) { delivered++ }
	nodes[0].HandleData(&des.Packet{FlowID: 0, Src: 0, Dst: 2, Bits: 8000, Hops: HopLimit - 1})
	eng.Run(eng.Now() + 1)
	if delivered != 0 {
		t.Fatal("packet exceeded hop limit but was delivered")
	}
	if nodes[1].DroppedHopLimit != 1 {
		t.Fatalf("hop-limit drops = %d", nodes[1].DroppedHopLimit)
	}
}

func TestNoRouteDrop(t *testing.T) {
	eng, nodes, _ := line3(t, Defaults())
	startAll(eng, nodes, 5)
	nodes[0].LinkFailed(1)
	nodes[0].HandleData(&des.Packet{FlowID: 0, Src: 0, Dst: 2, Bits: 8000})
	_ = eng
	if nodes[0].DroppedNoRoute != 1 {
		t.Fatalf("no-route drops = %d", nodes[0].DroppedNoRoute)
	}
}

func TestSPModeSingleNextHop(t *testing.T) {
	cfg := Defaults()
	cfg.Mode = ModeSP
	g := topo.NET1().Graph
	eng, nodes, _ := wire(t, g, cfg)
	startAll(eng, nodes, 5)
	phi := nodes[0].Fractions(8)
	if len(phi) != 1 {
		t.Fatalf("SP fractions = %v, want singleton", phi)
	}
	if phi[0].Frac != 1 {
		t.Fatalf("SP fraction = %v", phi[0].Frac)
	}
}

func TestMPModeMultipathFractions(t *testing.T) {
	g := topo.NET1().Graph
	eng, nodes, _ := wire(t, g, Defaults())
	startAll(eng, nodes, 5)
	// Node 0 toward 8 has successors {1,3}; MP must allocate to both.
	phi := nodes[0].Fractions(8)
	if len(phi) < 2 {
		t.Fatalf("MP fractions = %v, want multipath", phi)
	}
	sum := 0.0
	for _, sh := range phi {
		sum += sh.Frac
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("fractions sum to %v", sum)
	}
	if err := alloc.Validate(phi, nodes[0].Protocol().Successors(8)); err != nil {
		t.Fatal(err)
	}
}

func TestStaticMode(t *testing.T) {
	cfg := Defaults()
	cfg.Mode = ModeStatic
	cfg.Tl, cfg.Ts = 0, 0
	eng, nodes, g := line3(t, cfg)
	phi := make([]alloc.Split, g.NumNodes())
	phi[2] = alloc.Single(1)
	nodes[0].InstallStatic(phi)
	phi1 := make([]alloc.Split, g.NumNodes())
	phi1[2] = alloc.Single(2)
	nodes[1].InstallStatic(phi1)
	startAll(eng, nodes, 2)

	delivered := 0
	nodes[2].OnArrive = func(pkt *des.Packet) { delivered++ }
	nodes[0].HandleData(&des.Packet{FlowID: 0, Src: 0, Dst: 2, Bits: 8000})
	eng.Run(eng.Now() + 1)
	if delivered != 1 {
		t.Fatalf("static routing delivered %d", delivered)
	}
}

func TestStaticModeWithoutInstallDrops(t *testing.T) {
	cfg := Defaults()
	cfg.Mode = ModeStatic
	eng, nodes, _ := line3(t, cfg)
	startAll(eng, nodes, 2)
	nodes[0].HandleData(&des.Packet{FlowID: 0, Src: 0, Dst: 2, Bits: 8000})
	if nodes[0].DroppedNoRoute != 1 {
		t.Fatal("uninstalled static mode did not drop")
	}
	if nodes[0].Fractions(2) != nil {
		t.Fatal("Fractions non-nil without install")
	}
}

func TestWeightedPickDistribution(t *testing.T) {
	r := rng.New(1)
	phi := alloc.Split{{Hop: 1, Frac: 0.7}, {Hop: 2, Frac: 0.3}}
	counts := map[graph.NodeID]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[weightedPick(r, phi)]++
	}
	if f := float64(counts[1]) / n; math.Abs(f-0.7) > 0.01 {
		t.Fatalf("pick fraction for 1 = %v", f)
	}
	if weightedPick(r, nil) != graph.None {
		t.Fatal("pick from empty params != None")
	}
}

func TestWeightedPickZeroWeightNeverChosen(t *testing.T) {
	r := rng.New(2)
	phi := alloc.Split{{Hop: 1, Frac: 1}, {Hop: 2}}
	for i := 0; i < 1000; i++ {
		if weightedPick(r, phi) == 2 {
			t.Fatal("zero-weight successor chosen")
		}
	}
}

func TestLinkRecoveryRestoresRouting(t *testing.T) {
	eng, nodes, _ := line3(t, Defaults())
	startAll(eng, nodes, 5)
	nodes[0].LinkFailed(1)
	nodes[1].LinkFailed(0)
	eng.Run(eng.Now() + 2)
	if !math.IsInf(nodes[0].Protocol().Dist(2), 1) {
		t.Fatal("distance survives link failure")
	}
	nodes[0].LinkRecovered(1)
	nodes[1].LinkRecovered(0)
	eng.Run(eng.Now() + 5)
	if math.IsInf(nodes[0].Protocol().Dist(2), 1) {
		t.Fatal("distance not restored after recovery")
	}
}

func TestCorruptLSUPanics(t *testing.T) {
	eng, nodes, _ := line3(t, Defaults())
	_ = eng
	defer func() {
		if recover() == nil {
			t.Fatal("corrupt LSU did not panic")
		}
	}()
	nodes[0].HandleControl(&des.Packet{Control: []byte{1, 2, 3}})
}

func TestHandleControlIgnoresNonBytes(t *testing.T) {
	_, nodes, _ := line3(t, Defaults())
	nodes[0].HandleControl(&des.Packet{Control: 42}) // must not panic
}

func TestOnlineEstimatorMode(t *testing.T) {
	cfg := Defaults()
	cfg.UseOnlineEstimator = true
	eng, nodes, _ := line3(t, cfg)
	startAll(eng, nodes, 1)
	// Push some traffic and let a few Ts ticks elapse so the estimator path
	// executes end to end.
	for i := 0; i < 200; i++ {
		at := eng.Now() + float64(i)*0.01
		eng.Schedule(at, func() {
			nodes[0].HandleData(&des.Packet{FlowID: 0, Src: 0, Dst: 2, Bits: 8000})
		})
	}
	eng.Run(eng.Now() + 10)
	if nodes[0].ForwardedPackets == 0 {
		t.Fatal("no packets forwarded in estimator mode")
	}
}

// TestConfigWithoutDefaultsForwards: a Node whose Config sets only the
// mode and the two clocks prices its links and forwards. The packet size
// and the hop limit are package constants, not fields a caller can leave
// at zero.
func TestConfigWithoutDefaultsForwards(t *testing.T) {
	eng, nodes, _ := line3(t, Config{Mode: ModeMP, Tl: 10, Ts: 2})
	startAll(eng, nodes, 5)
	delivered := 0
	nodes[2].OnArrive = func(pkt *des.Packet) { delivered++ }
	for i := 0; i < 50; i++ {
		nodes[0].HandleData(&des.Packet{FlowID: 0, Src: 0, Dst: 2, Bits: 8000, Created: eng.Now()})
	}
	eng.Run(eng.Now() + 2)
	if delivered != 50 {
		t.Fatalf("delivered %d/50", delivered)
	}
	for i := graph.NodeID(0); i < 3; i++ {
		if d := nodes[i].DroppedHopLimit; d != 0 {
			t.Fatalf("node %d dropped %d packets at the hop limit", i, d)
		}
	}
}

func TestCostMeasureWindowArms(t *testing.T) {
	cfg := Defaults()
	cfg.CostMeasureWindow = 2 // < Tl = 10
	eng, nodes, _ := line3(t, cfg)
	startAll(eng, nodes, 1)
	// Drive some traffic and run long enough for two Tl rounds: the
	// windowed measurement path must execute without disturbing routing.
	for i := 0; i < 100; i++ {
		at := eng.Now() + float64(i)*0.05
		eng.Schedule(at, func() {
			nodes[0].HandleData(&des.Packet{FlowID: 0, Src: 0, Dst: 2, Bits: 8000, Created: eng.Now()})
		})
	}
	eng.Run(25)
	if nodes[0].Protocol().Dist(2) == math.Inf(1) {
		t.Fatal("routing lost under windowed measurement")
	}
}

func TestNodeID(t *testing.T) {
	_, nodes, _ := line3(t, Defaults())
	if nodes[1].ID() != 1 {
		t.Fatalf("ID = %v", nodes[1].ID())
	}
}

func TestHandleDataUnknownDestinationDrops(t *testing.T) {
	eng, nodes, _ := line3(t, Defaults())
	startAll(eng, nodes, 5)
	// Destination outside the successor tables (ID space allows it).
	nodes[0].HandleData(&des.Packet{FlowID: 0, Src: 0, Dst: 1 + 1 + 0, Bits: 800})
	_ = eng
}

func TestFractionsMPUnknownDestination(t *testing.T) {
	eng, nodes, _ := line3(t, Defaults())
	startAll(eng, nodes, 5)
	// A node has no route to itself.
	if phi := nodes[0].Fractions(0); len(phi) != 0 {
		t.Fatalf("fractions toward self = %v", phi)
	}
	_ = eng
}
