package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"minroute/internal/des"
	"minroute/internal/gallager"
	"minroute/internal/graph"
	"minroute/internal/router"
	"minroute/internal/telemetry"
	"minroute/internal/topo"
	"minroute/internal/traffic"
)

func quickOptions(mode router.Mode, seed uint64) Options {
	opt := DefaultOptions()
	opt.Router.Mode = mode
	opt.Router.Tl = 5
	opt.Router.Ts = 1
	opt.Seed = seed
	opt.Warmup = 8
	opt.Duration = 12
	return opt
}

func TestMPOnNET1DeliversWithFiniteDelays(t *testing.T) {
	net := topo.NET1()
	n := Build(net, quickOptions(router.ModeMP, 1))
	rep := n.Run()
	if err := n.CheckLoopFree(); err != nil {
		t.Fatal(err)
	}
	for x, name := range rep.FlowNames {
		if rep.Delivered[x] == 0 {
			t.Fatalf("flow %s delivered nothing", name)
		}
		if math.IsNaN(rep.MeanDelayMs[x]) || rep.MeanDelayMs[x] <= 0 {
			t.Fatalf("flow %s mean delay = %v", name, rep.MeanDelayMs[x])
		}
		if rep.MeanDelayMs[x] > 1000 {
			t.Fatalf("flow %s mean delay absurd: %v ms", name, rep.MeanDelayMs[x])
		}
	}
	if lr := rep.LossRate(); lr > 0.02 {
		t.Fatalf("loss rate %v too high for MP under nominal load", lr)
	}
	if rep.ControlMessages == 0 {
		t.Fatal("no control traffic despite periodic Tl updates")
	}
}

func TestSPOnNET1Works(t *testing.T) {
	net := topo.NET1()
	n := Build(net, quickOptions(router.ModeSP, 2))
	rep := n.Run()
	for x := range rep.FlowNames {
		if rep.Delivered[x] == 0 {
			t.Fatalf("SP flow %d delivered nothing", x)
		}
	}
}

func TestMPBeatsSPOnNET1(t *testing.T) {
	// The paper's headline comparison: under identical load, MP's average
	// delays are well below SP's (Fig. 12 shows 5-6x on NET1).
	net := topo.NET1()
	mp := Build(topo.NET1(), quickOptions(router.ModeMP, 3)).Run()
	sp := Build(net, quickOptions(router.ModeSP, 3)).Run()
	mpAvg, spAvg := mp.AvgMeanDelayMs(), sp.AvgMeanDelayMs()
	if !(mpAvg < spAvg) {
		t.Fatalf("MP avg %.3f ms not better than SP avg %.3f ms", mpAvg, spAvg)
	}
}

func TestStaticModeWithOPT(t *testing.T) {
	net := topo.NET1()
	opt, err := gallager.Solve(net.Graph, net.Flows, gallager.Options{MeanPacketBits: 8000})
	if err != nil {
		t.Fatal(err)
	}
	o := quickOptions(router.ModeStatic, 4)
	n := Build(net, o)
	n.InstallStatic(opt.Phi)
	rep := n.Run()
	for x := range rep.FlowNames {
		if rep.Delivered[x] == 0 {
			t.Fatalf("OPT flow %d delivered nothing", x)
		}
	}
	if lr := rep.LossRate(); lr > 0.02 {
		t.Fatalf("loss under OPT routing: %v", lr)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := Build(topo.NET1(), quickOptions(router.ModeMP, 7)).Run()
	b := Build(topo.NET1(), quickOptions(router.ModeMP, 7)).Run()
	for x := range a.MeanDelayMs {
		if a.MeanDelayMs[x] != b.MeanDelayMs[x] || a.Delivered[x] != b.Delivered[x] {
			t.Fatalf("same-seed runs diverge at flow %d", x)
		}
	}
	c := Build(topo.NET1(), quickOptions(router.ModeMP, 8)).Run()
	same := true
	for x := range a.MeanDelayMs {
		if a.Delivered[x] != c.Delivered[x] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical packet counts (suspicious)")
	}
}

func TestLinkFailureRerouting(t *testing.T) {
	net := topo.NET1()
	o := quickOptions(router.ModeMP, 9)
	n := Build(net, o)
	n.Start()
	n.Eng.Run(5)
	// Fail one of the two bridges; all west-east flows must reroute.
	n.FailLink(4, 5)
	n.Eng.Run(8)
	if err := n.CheckLoopFree(); err != nil {
		t.Fatal(err)
	}
	n.BeginMeasurement()
	n.Eng.Run(20)
	rep := n.Report()
	for x, name := range rep.FlowNames {
		if rep.Delivered[x] == 0 {
			t.Fatalf("flow %s starved after bridge failure", name)
		}
	}
	// Restore and confirm reconvergence keeps delivering.
	n.RestoreLink(4, 5)
	n.Eng.Run(30)
	if err := n.CheckLoopFree(); err != nil {
		t.Fatal(err)
	}
}

func TestOnOffSources(t *testing.T) {
	for name, src := range map[string]func(f topo.Flow) traffic.Source{
		"onoff": func(f topo.Flow) traffic.Source {
			return traffic.OnOff{RateBits: f.Rate, MeanPacketBits: 8000, PeakFactor: 4, MeanOn: 0.2}
		},
		// The lock-step adversary, once live-only, through the same option.
		"adversary": func(f topo.Flow) traffic.Source {
			return traffic.Adversary{RateBits: f.Rate, PacketBits: 8000, PeakFactor: 4, OnLen: 0.2}
		},
	} {
		t.Run(name, func(t *testing.T) {
			o := quickOptions(router.ModeMP, 11)
			o.Source = src
			n := Build(topo.NET1(), o)
			rep := n.Run()
			for x := range rep.FlowNames {
				if rep.Delivered[x] == 0 {
					t.Fatalf("bursty flow %d delivered nothing", x)
				}
			}
			if err := n.CheckLoopFree(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestReportString(t *testing.T) {
	rep := Build(topo.NET1(), quickOptions(router.ModeMP, 12)).Run()
	s := rep.String()
	if len(s) == 0 {
		t.Fatal("empty report")
	}
}

func TestCAIRNSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("CAIRN smoke test is slow")
	}
	net := topo.CAIRN()
	rep := Build(net, quickOptions(router.ModeMP, 13)).Run()
	for x, name := range rep.FlowNames {
		if rep.Delivered[x] == 0 {
			t.Fatalf("CAIRN flow %s delivered nothing", name)
		}
	}
}

func TestFailureStormStaysLoopFree(t *testing.T) {
	if testing.Short() {
		t.Skip("failure storm is slow")
	}
	// Repeatedly fail and restore links mid-traffic; the successor graphs
	// must stay loop-free at every audit point and traffic keeps flowing.
	net := topo.NET1()
	o := quickOptions(router.ModeMP, 21)
	n := Build(net, o)
	n.Start()
	n.Eng.Run(10)
	victims := [][2]graph.NodeID{{4, 5}, {1, 4}, {5, 8}, {0, 1}, {6, 8}}
	for round, v := range victims {
		n.FailLink(v[0], v[1])
		n.Eng.Run(n.Eng.Now() + 3)
		if err := n.CheckLoopFree(); err != nil {
			t.Fatalf("round %d after failure: %v", round, err)
		}
		n.RestoreLink(v[0], v[1])
		n.Eng.Run(n.Eng.Now() + 3)
		if err := n.CheckLoopFree(); err != nil {
			t.Fatalf("round %d after restore: %v", round, err)
		}
	}
	n.BeginMeasurement()
	n.Eng.Run(n.Eng.Now() + 10)
	rep := n.Report()
	for x, name := range rep.FlowNames {
		if rep.Delivered[x] == 0 {
			t.Fatalf("flow %s starved after failure storm", name)
		}
	}
}

func TestLargeRandomNetworkSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large network smoke is slow")
	}
	g := topo.Random(99, 40, 30, 8e6, 10e6, 1e-3)
	net := &topo.Network{Graph: g}
	r := g.NumNodes()
	for i := 0; i < 12; i++ {
		src := graph.NodeID((i * 7) % r)
		dst := graph.NodeID((i*13 + 5) % r)
		if src == dst {
			continue
		}
		net.Flows = append(net.Flows, topo.Flow{
			Name: fmt.Sprintf("f%d", i), Src: src, Dst: dst, Rate: 1.5e6,
		})
	}
	o := quickOptions(router.ModeMP, 22)
	o.Warmup, o.Duration = 15, 10
	n := Build(net, o)
	rep := n.Run()
	if err := n.CheckLoopFree(); err != nil {
		t.Fatal(err)
	}
	delivered := int64(0)
	for _, d := range rep.Delivered {
		delivered += d
	}
	if delivered == 0 {
		t.Fatal("40-node network delivered nothing")
	}
	if lr := rep.LossRate(); lr > 0.05 {
		t.Fatalf("loss rate %v on random network", lr)
	}
}

func TestHopCountsBounded(t *testing.T) {
	// With loop-free routing, delivered packets should take paths not far
	// beyond the diameter (4 for NET1): transients may add a few hops but
	// nothing pathological.
	rep := Build(topo.NET1(), quickOptions(router.ModeMP, 31)).Run()
	if rep.MaxHops == 0 {
		t.Fatal("hop tracking broken")
	}
	if rep.MaxHops > 4+6 {
		t.Fatalf("max hops = %d, far beyond NET1's diameter 4", rep.MaxHops)
	}
}

// tracedRun runs MP on NET1 with telemetry on and returns the packet paths
// rebuilt from the event log and the run's capture, for its event log and
// metrics.
func tracedRun(t *testing.T) ([]telemetry.Path, *telemetry.Capture) {
	t.Helper()
	net := topo.NET1()
	o := quickOptions(router.ModeMP, 41)
	o.Telemetry = telemetry.NewCapture(net.Graph.NumNodes())
	Build(net, o).Run()
	src := make([]graph.NodeID, len(net.Flows))
	for x, f := range net.Flows {
		src[x] = f.Src
	}
	return telemetry.Paths(o.Telemetry.Trace.Events(), src), o.Telemetry
}

func TestTracedPathsLoopFreeInPractice(t *testing.T) {
	// The data-plane counterpart of Theorem 3: actual forwarded packets on
	// MP, with routes changing beneath them, must essentially never revisit
	// a node. (A transient reroute can in principle cause a revisit across
	// time; it must be vanishingly rare.)
	paths, capture := tracedRun(t)
	delivered, withRevisit, maxHops := telemetry.Audit(paths)
	t.Logf("%d paths, %d delivered, %d with a revisit, longest %d hops", len(paths), delivered, withRevisit, maxHops)
	if delivered < 1000 {
		t.Fatalf("only %d delivered paths traced", delivered)
	}
	if frac := float64(withRevisit) / float64(delivered); frac > 0.001 {
		t.Fatalf("%d of %d traced paths revisit a node (%.4f)", withRevisit, delivered, frac)
	}
	if maxHops > 10 {
		t.Fatalf("max traced path length %d on diameter-4 NET1", maxHops)
	}
	// Every delivered path must start at its flow's source and end at its
	// destination.
	flows := topo.NET1().Flows
	for _, p := range paths {
		if !p.Delivered() {
			continue
		}
		if p.Hops[0].Node != flows[p.Flow].Src || p.Hops[len(p.Hops)-1].Node != p.Dst {
			t.Fatalf("path endpoints wrong: %+v", p)
		}
	}
	// The log samples whole packets at the rate its metrics state: every
	// pkt_enqueue and pkt_deliver belongs to a packet whose number is a
	// multiple of it, and every delivered one of those has a whole path.
	capture.SyncDropCounters()
	every := uint32(capture.Metrics.Gauge("telemetry.events.pkt_sample_every").Value())
	if every == 0 {
		t.Fatal("the metrics state no packet sample rate")
	}
	type key struct {
		flow int32
		pkt  uint32
	}
	unpathed := map[key]bool{}
	for _, ev := range capture.Trace.Events() {
		if (ev.Kind == telemetry.KindPktEnqueue || ev.Kind == telemetry.KindPktDeliver) && ev.Pkt%every != 0 {
			t.Fatalf("%s of flow %d's packet %d breaks the 1-in-%d sample", ev.Kind, ev.Flow, ev.Pkt, every)
		}
		if ev.Kind == telemetry.KindPktDeliver {
			unpathed[key{ev.Flow, ev.Pkt}] = true
		}
	}
	for _, p := range paths {
		if p.Delivered() {
			delete(unpathed, key{p.Flow, p.Pkt})
		}
	}
	if len(unpathed) > 0 {
		t.Fatalf("%d delivered sampled packets have no whole path from source to destination", len(unpathed))
	}
}

// TestShardedReportMatchesSerial: a sharded run's report matches the
// serial one field for field. That equality is what cmd/mdrbench's
// despart.identical row checks on des-sf160.
func TestShardedReportMatchesSerial(t *testing.T) {
	want := Build(topo.NET1(), quickOptions(router.ModeMP, 41)).Run()
	for _, shards := range []int{2, 3} {
		o := quickOptions(router.ModeMP, 41)
		o.Shards = shards
		for _, d := range reportDiff(Build(topo.NET1(), o).Run(), want) {
			t.Errorf("shards=%d: %s", shards, d)
		}
	}
}

// reportDiff lists the fields of a that differ from b's. Each field is
// compared by its printed value, which for a float is the shortest text
// that round-trips, so equal means bit-equal and NaN matches NaN.
func reportDiff(a, b *Report) []string {
	va, vb := reflect.ValueOf(*a), reflect.ValueOf(*b)
	var diffs []string
	for i := range va.NumField() {
		if fa, fb := fmt.Sprint(va.Field(i)), fmt.Sprint(vb.Field(i)); fa != fb {
			diffs = append(diffs, fmt.Sprintf("%s = %s, serial %s", va.Type().Field(i).Name, fa, fb))
		}
	}
	return diffs
}

func TestReorderingMetric(t *testing.T) {
	// SP keeps each flow on one path at a time, so it reorders only where a
	// route flip (every Tl = 5 s here) lets the new path overtake the old:
	// a few percent of the 12 s measured, and far below MP, whose
	// per-packet splitting reorders a large fraction.
	sp := Build(topo.NET1(), quickOptions(router.ModeSP, 51)).Run()
	mp := Build(topo.NET1(), quickOptions(router.ModeMP, 51)).Run()
	var spMax, mpSum float64
	for x := range sp.Reordered {
		if sp.Reordered[x] > spMax {
			spMax = sp.Reordered[x]
		}
		mpSum += mp.Reordered[x]
	}
	if spMax > 0.05 {
		t.Fatalf("SP reordering %v unexpectedly high", spMax)
	}
	if mpSum == 0 {
		t.Fatal("MP shows zero reordering; metric suspect")
	}
	if mpMean := mpSum / float64(len(mp.Reordered)); spMax > mpMean/4 {
		t.Fatalf("SP reordering %v not well below MP's mean %v; metric suspect", spMax, mpMean)
	}
}

// TestReorderedCoversDelivered: Reordered and Delivered describe the same
// packets — those delivered after BeginMeasurement — and a packet is late
// when any earlier delivery of its flow, warmup included, had a higher
// serial. The expected counts are taken by a wrapper around every router's
// OnArrive.
func TestReorderedCoversDelivered(t *testing.T) {
	o := quickOptions(router.ModeMP, 51)
	n := Build(topo.NET1(), o)
	arrived := make([]int64, len(n.Flows))
	late := make([]int64, len(n.Flows))
	maxSerial := make([]uint64, len(n.Flows))
	measuring := false
	for _, id := range n.Graph.Nodes() {
		node := n.Nodes[id]
		inner := node.OnArrive
		node.OnArrive = func(pkt *des.Packet) {
			x := pkt.FlowID
			if measuring {
				arrived[x]++
				if pkt.Serial < maxSerial[x] {
					late[x]++
				}
			}
			if pkt.Serial > maxSerial[x] {
				maxSerial[x] = pkt.Serial
			}
			inner(pkt)
		}
	}
	n.Start()
	n.RunUntil(o.Warmup)
	n.BeginMeasurement()
	measuring = true
	n.RunUntil(o.Warmup + o.Duration)
	rep := n.Report()
	for x, name := range rep.FlowNames {
		if rep.Delivered[x] != arrived[x] {
			t.Fatalf("flow %s: Delivered %d, %d arrivals after warmup", name, rep.Delivered[x], arrived[x])
		}
		want := float64(late[x]) / float64(arrived[x])
		if math.Float64bits(rep.Reordered[x]) != math.Float64bits(want) {
			t.Fatalf("flow %s: Reordered %v, want %d late of %d arrivals after warmup = %v", name, rep.Reordered[x], late[x], arrived[x], want)
		}
	}
}

func TestAsymmetricLinkCosts(t *testing.T) {
	// The paper: "Each link is bidirectional with possibly different costs
	// in each direction." Build a network where one direction of a link is
	// 10x slower and verify MP converges, routes correctly, and delivers
	// in both directions.
	g := graph.New()
	for _, name := range []string{"a", "b", "c", "d"} {
		g.AddNode(name)
	}
	// a->b fast, b->a slow; plus a ring a-c-d-b providing an alternative.
	mustLink := func(from, to graph.NodeID, capacity float64) {
		if err := g.AddLink(from, to, capacity, 0.5e-3); err != nil {
			t.Fatal(err)
		}
	}
	mustLink(0, 1, 10e6)
	mustLink(1, 0, 1e6) // asymmetric: reverse direction is 10x slower
	for _, e := range [][2]graph.NodeID{{0, 2}, {2, 0}, {2, 3}, {3, 2}, {3, 1}, {1, 3}} {
		mustLink(e[0], e[1], 10e6)
	}
	net := &topo.Network{Graph: g, Flows: []topo.Flow{
		{Name: "a->b", Src: 0, Dst: 1, Rate: 4e6},
		{Name: "b->a", Src: 1, Dst: 0, Rate: 4e6},
	}}
	o := quickOptions(router.ModeMP, 61)
	n := Build(net, o)
	rep := n.Run()
	if err := n.CheckLoopFree(); err != nil {
		t.Fatal(err)
	}
	for x, name := range rep.FlowNames {
		if rep.Delivered[x] == 0 {
			t.Fatalf("flow %s starved", name)
		}
	}
	// The 4 Mb/s reverse flow cannot fit the 1 Mb/s direct link: MP must
	// route it (mostly) around via d-c, keeping delay sane.
	if rep.MeanDelayMs[1] > 100 {
		t.Fatalf("reverse flow delay %v ms: asymmetric capacity not routed around", rep.MeanDelayMs[1])
	}
	if lr := rep.LossRate(); lr > 0.02 {
		t.Fatalf("loss %v under asymmetric capacities", lr)
	}
}

// TestBuildRouterConfigFallback: only the all-zero router.Config selects
// the defaults; a partly filled one is built as given — Mode and Tl kept —
// and runs.
func TestBuildRouterConfigFallback(t *testing.T) {
	n := Build(topo.NET1(), Options{Seed: 1})
	if n.opt.Router != router.Defaults() {
		t.Fatalf("zero router config built as %+v, want router.Defaults()", n.opt.Router)
	}
	cfg := router.Config{Mode: router.ModeSP, Tl: 20}
	n = Build(topo.NET1(), Options{Router: cfg, Seed: 1, Warmup: 1, Duration: 1})
	if n.opt.Router != cfg {
		t.Fatalf("router config %+v built as %+v", cfg, n.opt.Router)
	}
	var delivered int64
	for _, d := range n.Run().Delivered {
		delivered += d
	}
	if delivered == 0 {
		t.Fatal("a network built on a partly filled router config delivered nothing")
	}
}

// ringNet is the chaos harness's ring:6 with one flow across it.
func ringNet() *topo.Network {
	return &topo.Network{
		Graph: topo.Ring(6, 5e6, 1e-3),
		Flows: []topo.Flow{{Name: "f0:2->5", Src: 2, Dst: 5, Rate: 150e3}},
	}
}

// believesLink reports whether router a holds an adjacent cost for b.
func believesLink(n *Network, a, b graph.NodeID) bool {
	_, ok := n.Nodes[a].Protocol().Tables().AdjCost(b)
	return ok
}

// TestRestartBesideCrashedNeighbor: crash 0, crash 1, restart 0. Link 0–1
// cannot carry an LSU while 1 is down, so the restarted router 0 must not
// announce it — otherwise it floods 1, waits for an ACK that cannot come,
// and sits ACTIVE for the rest of the run. The link comes back when 1
// restarts.
func TestRestartBesideCrashedNeighbor(t *testing.T) {
	o := quickOptions(router.ModeMP, 3)
	n := Build(ringNet(), o)
	n.Start()
	n.RunUntil(1)
	n.CrashNode(0)
	n.RunUntil(1.5)
	n.CrashNode(1)
	n.RunUntil(3)
	n.RestartNode(0)
	if n.LinkUp(0, 1) || !n.LinkUp(0, 5) {
		t.Fatalf("LinkUp(0,1)=%v LinkUp(0,5)=%v after restart beside a crashed neighbor", n.LinkUp(0, 1), n.LinkUp(0, 5))
	}
	n.RunUntil(10)
	if believesLink(n, 0, 1) {
		t.Fatal("router 0 believes link 0-1 up while router 1 is down")
	}
	for _, k := range n.Nodes[0].Protocol().Successors(1) {
		if k == 1 {
			t.Fatal("router 0 routes to crashed router 1 over the dead link")
		}
	}
	if n.Nodes[0].Protocol().Active() {
		t.Fatal("router 0 stuck ACTIVE waiting on a crashed neighbor")
	}
	if !n.Ports[[2]graph.NodeID{0, 1}].Down() || n.Ports[[2]graph.NodeID{0, 5}].Down() {
		t.Fatal("restart raised the port toward the crashed neighbor, or left the live one down")
	}

	n.RestartNode(1)
	n.RunUntil(14)
	if !believesLink(n, 0, 1) || !believesLink(n, 1, 0) {
		t.Fatal("link 0-1 did not come back when router 1 restarted")
	}
	if err := n.CheckLoopFree(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedLinkSurvivesRestart: an explicitly failed link stays down across
// a crash and restart of an endpoint — with one fault marker, not a second
// one for a re-failure nobody injected — comes back on RestoreLink, and a
// restore while an endpoint is down takes effect at that endpoint's restart.
func TestFailedLinkSurvivesRestart(t *testing.T) {
	o := quickOptions(router.ModeMP, 4)
	o.Telemetry = telemetry.NewCapture(6)
	n := Build(ringNet(), o)
	n.Start()
	n.RunUntil(1)
	n.FailLink(0, 1)
	n.CrashNode(0)
	n.RunUntil(2)
	n.RestartNode(0)
	n.RunUntil(4)
	if believesLink(n, 0, 1) || believesLink(n, 1, 0) || n.LinkUp(0, 1) {
		t.Fatal("explicitly failed link 0-1 came back with the restart of router 0")
	}
	fails := 0
	for _, ev := range o.Telemetry.Trace.Events() {
		if ev.Kind == telemetry.KindFaultStart && ev.Label == "link-fail 0-1" {
			fails++
		}
	}
	if fails != 1 {
		t.Fatalf("%d link-fail 0-1 markers, want the one injected", fails)
	}

	n.CrashNode(1)
	n.RestoreLink(0, 1) // repaired while 1 is down: nothing to raise yet
	if n.LinkUp(0, 1) || believesLink(n, 0, 1) {
		t.Fatal("restore raised a link whose endpoint is crashed")
	}
	n.RestartNode(1)
	n.RunUntil(8)
	if !believesLink(n, 0, 1) || !believesLink(n, 1, 0) {
		t.Fatal("repaired link 0-1 did not come up when router 1 restarted")
	}
}
