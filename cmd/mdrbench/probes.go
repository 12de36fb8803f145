package main

import (
	"math"
	"runtime"

	"minroute/internal/alloc"
	"minroute/internal/dataplane"
	"minroute/internal/des"
	"minroute/internal/dijkstra"
	"minroute/internal/eventq"
	"minroute/internal/gallager"
	"minroute/internal/graph"
	"minroute/internal/lsu"
	"minroute/internal/node"
	"minroute/internal/pda"
	"minroute/internal/rng"
	"minroute/internal/router"
	"minroute/internal/telemetry"
	"minroute/internal/topo"
	"minroute/internal/transport"
	"minroute/internal/wire"
)

// A probe calls one layer's public function in isolation, on inputs of the
// shape the workloads give it, and reports its cost per call. Probes do not
// depend on the run's seed or workload: every traced run measures all of
// them, so each per-layer cost has as many samples as there are traced runs.

// probeBatches is how many equal batches a probe times; the median batch is
// reported, so one preempted batch cannot move the number.
const probeBatches = 5

// measure times fn over probeBatches batches of n calls after one warm-up
// batch and returns the median batch's ns per call and heap allocations per
// call.
func measure(n int, fn func()) (nsPerOp, allocsPerOp float64) {
	return measureRounds(1, n, func() {
		for i := 0; i < n; i++ {
			fn()
		}
	}, nil)
}

// measureRounds is measure for calls that need untimed work in between: a
// batch is rounds × (timed, then between off the clock), and timed makes
// per calls. Allocations are counted over the whole batch, between included.
func measureRounds(rounds, per int, timed, between func()) (nsPerOp, allocsPerOp float64) {
	batch := func() (seconds float64) {
		for r := 0; r < rounds; r++ {
			seconds += timeIt(timed)
			if between != nil {
				between()
			}
		}
		return seconds
	}
	batch() // warm-up: first-use allocations, branch predictors, caches
	calls := float64(rounds * per)
	ns := make([]float64, probeBatches)
	allocs := make([]float64, probeBatches)
	var before, after runtime.MemStats
	for b := range ns {
		runtime.ReadMemStats(&before)
		s := batch()
		runtime.ReadMemStats(&after)
		ns[b] = s * 1e9 / calls
		allocs[b] = float64(after.Mallocs-before.Mallocs) / calls
	}
	return median(ns), median(allocs)
}

// runProbes measures every probe metric. quick shrinks iteration counts and
// table sizes to smoke-test scale; its numbers mean nothing.
func runProbes(quick bool) map[string]float64 {
	p := prober{m: make(map[string]float64), scale: 1, sf: 160}
	if quick {
		p.scale, p.sf = 0.01, 24
	}
	p.eventq()
	p.des()
	p.router()
	p.alloc()
	p.controlPlane()
	p.gallager()
	p.codec()
	p.transport()
	p.dataplane()
	return p.m
}

type prober struct {
	m     map[string]float64
	scale float64 // multiplies iteration counts
	sf    int     // router count of the scale-free probe topology
}

// n scales a full-size iteration count, keeping at least a handful.
func (p *prober) n(full int) int {
	if n := int(float64(full) * p.scale); n > 8 {
		return n
	}
	return 8
}

func noop() {}

func (p *prober) eventq() {
	pushPop := func(depth int) (float64, float64) {
		r := rng.New(1)
		var q eventq.Queue
		for i := 0; i < depth; i++ {
			q.Push(r.Float64(), noop)
		}
		return measure(p.n(100_000), func() {
			e := q.Pop()
			t := e.Time()
			q.Recycle(e)
			q.Push(t+r.Float64(), noop)
		})
	}
	p.m["eventq.push_pop_ns"], p.m["eventq.allocs_per_op"] = pushPop(1_000)
	p.m["eventq.push_pop_ns_d16k"], _ = pushPop(16_000)
	p.m["eventq.push_pop_ns_d64"], _ = pushPop(64)

	// The timer pattern: push two, cancel one, pop past the corpse.
	r := rng.New(1)
	var q eventq.Queue
	for i := 0; i < 1_000; i++ {
		q.Push(r.Float64(), noop)
	}
	p.m["eventq.cancel_ns"], _ = measure(p.n(100_000), func() {
		e := q.Pop()
		t := e.Time()
		q.Recycle(e)
		h := q.Push(t+r.Float64(), noop)
		q.Cancel(h)
		q.Push(t+r.Float64(), noop)
	})
}

// probeLink is a fast, short link for the pipeline probes.
func probeLink() *graph.Link {
	g := graph.New()
	a, b := g.AddNode("a"), g.AddNode("b")
	if err := g.AddLink(a, b, 1e9, 1e-4); err != nil {
		panic(err)
	}
	l, _ := g.Link(a, b)
	return l
}

// linkPipeline times the per-packet path of the simulator's hot loop: pool
// get, Send, transmission event, propagation event, delivery, pool put.
func (p *prober) linkPipeline(probe *telemetry.LinkProbe) (float64, float64) {
	e := des.NewEngine(1)
	port := des.NewPort(e, probeLink(), 1e12, func(pkt *des.Packet) { e.FreePacket(pkt) })
	port.Probe = probe
	r := e.RNG().Split(1)
	return measure(p.n(150_000), func() {
		pkt := e.NewPacket()
		*pkt = des.Packet{Bits: r.Exp(8000), Created: e.Now()}
		port.Send(pkt)
		for e.Pending() > 0 {
			e.Step()
		}
	})
}

func (p *prober) des() {
	plain, allocs := p.linkPipeline(nil)
	p.m["des.link_pipeline_ns"], p.m["des.link_allocs_per_pkt"] = plain, allocs
	reg := telemetry.NewRegistry(telemetry.DefaultBucketWidth)
	probed, _ := p.linkPipeline(&telemetry.LinkProbe{
		Tracer:    telemetry.NewTracer(2, telemetry.DefaultRingCap),
		From:      0,
		To:        1,
		QueueBits: reg.Histogram("probe.queue.bits"),
		TxBits:    reg.Counter("probe.tx.bits"),
		LostPkts:  reg.Counter("probe.lost.pkts"),
	})
	p.m["telemetry.link_probe_ns"] = probed - plain
}

// routerRig is two router.Nodes joined by a duplex link, wired the way
// core.Build wires a network: ports deliver into the far node's handlers
// and LSUs travel as control packets.
type routerRig struct {
	eng   *des.Engine
	nodes [2]*router.Node
}

func newRouterRig() *routerRig {
	g := graph.New()
	a, b := g.AddNode("a"), g.AddNode("b")
	if err := g.AddDuplex(a, b, 1e9, 1e-4); err != nil {
		panic(err)
	}
	rig := &routerRig{eng: des.NewEngine(1)}
	ports := make(map[[2]graph.NodeID]*des.Port)
	for _, id := range g.Nodes() {
		id := id
		rig.nodes[id] = router.New(rig.eng, id, 2, router.Defaults(), func(to graph.NodeID, m *lsu.Msg) {
			buf, err := m.Marshal()
			if err != nil {
				panic(err)
			}
			pkt := rig.eng.NewPacket()
			*pkt = des.Packet{FlowID: -1, Bits: float64(len(buf) * 8), Control: buf}
			if !ports[[2]graph.NodeID{id, to}].Send(pkt) {
				rig.eng.FreePacket(pkt)
			}
		})
	}
	for _, l := range g.Links() {
		to := rig.nodes[l.To]
		port := des.NewPort(rig.eng, l, 1e12, func(pkt *des.Packet) {
			if pkt.IsControl() {
				to.HandleControl(pkt)
				rig.eng.FreePacket(pkt)
			} else {
				to.HandleData(pkt)
			}
		})
		ports[[2]graph.NodeID{l.From, l.To}] = port
		rig.nodes[l.From].AttachPort(l.To, port)
	}
	rig.nodes[0].Start()
	rig.nodes[1].Start()
	rig.settle()
	return rig
}

// settle runs the engine far enough for everything in flight to land.
func (rig *routerRig) settle() { rig.eng.Run(rig.eng.Now() + 0.01) }

func (p *prober) router() {
	rig := newRouterRig()
	// HandleData at the origin: next-hop choice under the phi split plus
	// the enqueue on the port. The packets' link events and their delivery
	// at the far node drain between batches, off the clock.
	const batch = 64
	p.m["router.handle_data_ns"], p.m["router.handle_data_allocs"] = measureRounds(p.n(500), batch, func() {
		for i := 0; i < batch; i++ {
			pkt := rig.eng.NewPacket()
			*pkt = des.Packet{FlowID: i, Src: 0, Dst: 1, Bits: 8000, Created: rig.eng.Now()}
			rig.nodes[0].HandleData(pkt)
		}
	}, rig.settle)

	// HandleControl: unmarshal, MPDA on a one-entry LSU whose cost keeps
	// changing, and the allocation refresh; replies drain off the clock.
	var lsus [2][]byte
	for i := range lsus {
		lsus[i] = must((&lsu.Msg{From: 0, Entries: []lsu.Entry{{Op: lsu.OpChange, Head: 0, Tail: 1, Cost: float64(i + 1)}}}).Marshal())
	}
	calls := 0
	ns, _ := measureRounds(p.n(5_000), 1, func() {
		buf := lsus[calls%2] // alternate the cost so every LSU changes the table
		calls++
		pkt := rig.eng.NewPacket()
		*pkt = des.Packet{FlowID: -1, Bits: float64(len(buf) * 8), Control: buf}
		rig.nodes[1].HandleControl(pkt)
		rig.eng.FreePacket(pkt)
	}, rig.settle)
	p.m["router.handle_control_us"] = ns / 1e3
}

func (p *prober) alloc() {
	succ := []graph.NodeID{2, 5, 7}
	dist := func(k graph.NodeID) float64 { return 1e-3 * float64(k) }
	p.m["alloc.initial_ns"], _ = measure(p.n(50_000), func() { alloc.Initial(succ, dist) })
	phi := alloc.Initial(succ, dist)
	p.m["alloc.adjust_ns"], _ = measure(p.n(50_000), func() {
		// Adjust drains the worst successor; re-seed so every call has
		// traffic to move.
		phi[2], phi[5], phi[7] = 0.4, 0.35, 0.25
		alloc.Adjust(phi, succ, dist)
	})
	p.m["alloc.keys_ns"], _ = measure(p.n(50_000), func() { phi.Keys() })
}

// convergedTables converges g on protonet and returns the PDA tables of a
// mid-degree router with the neighbor whose reports the probes perturb.
func convergedTables(g *graph.Graph) (*pda.Tables, graph.NodeID) {
	cn := newCtrlNet(g, 1, nil)
	cn.net.BringUpAll(protoCost)
	cn.net.Run(deliveryBudget)
	// Mid-degree: the router whose degree is the median over all routers,
	// lowest ID among equals.
	degrees := make([]float64, 0, g.NumNodes())
	for _, id := range g.Nodes() {
		degrees = append(degrees, float64(g.Degree(id)))
	}
	want := int(percentile(sortedCopy(degrees), 50))
	for _, id := range g.Nodes() {
		if g.Degree(id) == want {
			t := cn.routers[id].Tables()
			return t, t.Neighbors()[0]
		}
	}
	panic("no router has the median degree")
}

// tablesProbe times the per-LSU table work on t: a one-entry ApplyLSU from
// neighbor k (the entry and the Dijkstra over T_k) and the RunMTU after it.
// The entry's cost alternates so every call changes the tables.
func (p *prober) tablesProbe(t *pda.Tables, k graph.NodeID, iters int) (applyNs, mtuUs, mtuAllocs float64) {
	var entry lsu.Entry
	t.NeighborTopo(k).VisitOut(k, func(tail graph.NodeID, cost float64) {
		if entry.Op == 0 {
			entry = lsu.Entry{Op: lsu.OpChange, Head: k, Tail: tail, Cost: cost}
		}
	})
	base := entry.Cost
	flip := func() []lsu.Entry {
		if entry.Cost > base {
			entry.Cost = base
		} else {
			entry.Cost = base * 1.5
		}
		return []lsu.Entry{entry}
	}
	applyNs, _ = measure(iters, func() { t.ApplyLSU(k, flip()) })
	ns, allocs := measure(iters, func() {
		t.ApplyLSU(k, flip())
		t.RunMTU()
	})
	return applyNs, (ns - applyNs) / 1e3, allocs
}

func (p *prober) controlPlane() {
	net1 := topo.NET1().Graph
	sf := scaleFree(p.sf).Graph

	view := func(g *graph.Graph) dijkstra.GraphView { return dijkstra.GraphView{G: g, Cost: protoCost} }
	ns, _ := measure(p.n(10_000), func() { dijkstra.Run(view(net1), 0) })
	p.m["dijkstra.run_us_n10"] = ns / 1e3
	ns, _ = measure(p.n(1_000), func() { dijkstra.Run(view(sf), 0) })
	p.m["dijkstra.run_us_n160"] = ns / 1e3

	t10, k10 := convergedTables(net1)
	p.m["pda.apply_lsu_ns_n10"], p.m["pda.run_mtu_us_n10"], _ = p.tablesProbe(t10, k10, p.n(2_000))
	t160, k160 := convergedTables(sf)
	p.m["pda.apply_lsu_ns"], p.m["pda.run_mtu_us_n160"], p.m["pda.run_mtu_allocs_n160"] = p.tablesProbe(t160, k160, p.n(200))

	main := t160.Main()
	p.m["pda.visit_out_ns"], _ = measure(p.n(50_000), func() { main.VisitOut(t160.ID(), func(graph.NodeID, float64) {}) })
	old := main.Clone()
	old.Set(t160.ID(), k160, 1) // one changed link between the two tables
	ns, _ = measure(p.n(500), func() { main.Diff(old) })
	p.m["pda.diff_us_n160"] = ns / 1e3
}

func (p *prober) gallager() {
	tn := topo.NET1()
	var res *gallager.Result
	s := make([]float64, 3)
	if p.scale < 1 {
		s = s[:1]
	}
	for i := range s {
		s[i] = timeIt(func() {
			res = must(gallager.Solve(tn.Graph, tn.Flows, gallager.Options{MeanPacketBits: 8000}))
		})
	}
	p.m["gallager.solve_s_net1"] = median(s)
	p.m["gallager.iterations"] = float64(res.Iterations)
}

// probeMsg is a typical MPDA update: an 8-entry LSU carrying an ACK.
func probeMsg() *lsu.Msg {
	m := &lsu.Msg{From: 3, Ack: true}
	for i := 0; i < 8; i++ {
		m.Entries = append(m.Entries, lsu.Entry{
			Op: lsu.OpAdd, Head: graph.NodeID(i), Tail: graph.NodeID(i + 1), Cost: 1.5 * float64(i+1),
		})
	}
	return m
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func (p *prober) codec() {
	n := p.n(100_000)
	msg := probeMsg()
	blob := must(msg.Marshal())
	p.m["lsu.marshal_ns"], _ = measure(n, func() { must(msg.Marshal()) })
	p.m["lsu.unmarshal_ns"], _ = measure(n, func() { must(lsu.Unmarshal(blob)) })

	frame := must(wire.NewLSU(msg))
	frame.Seq = 99
	buf := make([]byte, 0, frame.EncodedBytes())
	p.m["wire.lsu_encode_ns"], _ = measure(n, func() { buf = must(frame.AppendEncode(buf[:0]))[:0] })
	enc := must(frame.Encode())
	var scratch wire.Frame
	p.m["wire.lsu_decode_ns"], _ = measure(n, func() {
		if err := wire.DecodeInto(&scratch, enc); err != nil {
			panic(err)
		}
	})

	// The data band's per-packet path: payload pack + frame encode into a
	// reused buffer on the way out, scratch decode + header parse on the way
	// in. One frame is one encode plus one decode for the allocation count.
	pkt := &wire.DataPacket{Src: 3, Dst: 7, TTL: 32, FlowID: 0xdeadbeef, SentAt: 1.5, SizeBits: packetBits}
	data := must(wire.NewData(pkt))
	dataEnc := must(data.Encode())
	var encAllocs, decAllocs float64
	p.m["wire.data_encode_ns"], encAllocs = measure(n, func() { buf = must(data.AppendEncode(buf[:0]))[:0] })
	var parsed wire.DataPacket
	p.m["wire.data_decode_ns"], decAllocs = measure(n, func() {
		if err := wire.DecodeInto(&scratch, dataEnc); err != nil {
			panic(err)
		}
		if err := wire.DecodeDataPacket(&parsed, scratch.Payload); err != nil {
			panic(err)
		}
	})
	p.m["wire.allocs_per_frame"] = encAllocs + decAllocs
}

// pump sends n frames from tx while a receiver goroutine drains rx, and
// returns messages per second. One sender, one receiver.
func pump(tx, rx transport.Conn, n int) float64 {
	frame := must(wire.NewLSU(probeMsg()))
	done := make(chan error, 1) // one send, from the receiver as it exits
	go func() {
		for i := 0; i < n; i++ {
			if _, err := rx.Recv(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	var recvErr error
	s := timeIt(func() {
		for i := 0; i < n; i++ {
			if err := tx.Send(frame); err != nil {
				panic(err)
			}
		}
		recvErr = <-done
	})
	if recvErr != nil {
		panic(recvErr)
	}
	return float64(n) / s
}

func (p *prober) transport() {
	n := p.n(100_000)

	x, y := transport.Pipe()
	p.m["transport.pipe_msgs_per_s"] = pump(x, y, n)
	x.Close()
	y.Close()

	l := must(transport.ListenTCP("127.0.0.1:0"))
	accepted := make(chan transport.Conn, 1) // one send: the single accepted connection, or closed on error
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	tx := must(transport.DialTCP(l.Addr()))
	rx, ok := <-accepted
	if !ok {
		panic("tcp accept failed")
	}
	p.m["transport.tcp_msgs_per_s"] = pump(tx, rx, n)
	tx.Close()
	rx.Close()
	l.Close()

	pa, pb := must(transport.BindUDP("127.0.0.1:0")), must(transport.BindUDP("127.0.0.1:0"))
	if err := pa.Connect(pb.LocalAddr()); err != nil {
		panic(err)
	}
	if err := pb.Connect(pa.LocalAddr()); err != nil {
		panic(err)
	}
	clk := node.NewWallClock()
	ax, ay := transport.NewARQ(pa, transport.ARQConfig{}, clk), transport.NewARQ(pb, transport.ARQConfig{}, clk)
	p.m["transport.arq_udp_msgs_per_s"] = pump(ax, ay, n)
	ax.Close()
	ay.Close()
}

// probeEntries is a NET1-node-shaped forwarding table: nine destinations,
// a mix of single- and dual-path routes.
func probeEntries() []dataplane.Entry {
	var entries []dataplane.Entry
	for d := 1; d < 10; d++ {
		e := dataplane.Entry{Dst: graph.NodeID(d), Hops: []graph.NodeID{graph.NodeID(d % 4)}, Weights: []float64{1}}
		if d%2 == 0 {
			e.Hops = append(e.Hops, graph.NodeID(d%4+1))
			e.Weights = []float64{0.6, 0.4}
		}
		entries = append(entries, e)
	}
	return entries
}

func (p *prober) dataplane() {
	entries := probeEntries()
	tbl := dataplane.Compile(entries, nil)
	i := 0
	p.m["dataplane.lookup_ns"], _ = measure(p.n(1_000_000), func() {
		if _, ok := tbl.Lookup(graph.NodeID(i%9+1), uint64(i)); !ok {
			panic("lookup missed")
		}
		i++
	})
	ns, allocs := measure(p.n(3_000), func() { dataplane.Compile(entries, nil) })
	p.m["dataplane.compile_us"], p.m["dataplane.compile_allocs"] = ns/1e3, allocs
	ns, _ = measure(p.n(3_000), func() { dataplane.Compile(entries, tbl) })
	p.m["dataplane.recompile_us"] = ns / 1e3

	// One hop through real forwarder goroutines: origin → sink.
	rl := newRelayLine(2)
	c := &runCtx{}
	nPk := p.n(300_000)
	elapsed, delivered := rl.closedLoop(c, nil, nPk)
	rl.close()
	if c.failed > 0 || delivered != int64(nPk) {
		panic("one-hop probe lost packets")
	}
	p.m["dataplane.one_hop_pps"] = float64(delivered) / elapsed

	// Worst bucket-share deviation from the requested weights over a sweep
	// of split shapes; bounded by 1/256 per hop by construction.
	worst := 0.0
	for _, ws := range [][]float64{{1}, {0.5, 0.5}, {0.75, 0.25}, {0.9, 0.1}, {0.5, 0.3, 0.2}, {0.4, 0.3, 0.2, 0.1}} {
		hops := make([]graph.NodeID, len(ws))
		for h := range hops {
			hops[h] = graph.NodeID(h + 1)
		}
		shares := dataplane.Compile([]dataplane.Entry{{Dst: 9, Hops: hops, Weights: ws}}, nil).BucketShares(9)
		for h, hop := range hops {
			worst = math.Max(worst, math.Abs(shares[hop]-ws[h]))
		}
	}
	p.m["dataplane.split_error_max"] = worst
}
