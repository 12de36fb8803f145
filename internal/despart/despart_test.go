package despart_test

import (
	"reflect"
	"testing"

	"minroute/internal/des"
	"minroute/internal/despart"
	"minroute/internal/graph"
	"minroute/internal/leaktest"
	"minroute/internal/rng"
	"minroute/internal/simpool"
)

// The despart tests drive a synthetic forwarding mesh built directly on
// des.Port — no routers, no protocol — so they pin the coordinator, mailbox,
// and canonical-ordering machinery in isolation: per-router delivery logs
// must be byte-identical (floats included) at any shard count and any valid
// window width, against a plain single-engine run.

type delivery struct {
	from   graph.NodeID
	serial uint64
	at     float64
	hops   int
}

const meshDur = 2.0

// runMesh builds a pseudo-random forwarding mesh from seed and runs it to
// meshDur partitioned across the given number of shards. shards == 0 runs
// the plain single-engine baseline with no coordinator at all. window <= 0
// selects the minimum propagation delay. Returns per-router delivery logs
// and the total number of events fired.
func runMesh(tb testing.TB, seed uint64, routers, shards, sends, maxHops int, window float64) ([][]delivery, int64) {
	tb.Helper()
	plain := shards == 0
	if plain {
		shards = 1
	}
	if shards > routers {
		shards = routers
	}
	engines := make([]*des.Engine, shards)
	for s := range engines {
		engines[s] = des.NewEngine(seed)
	}
	shardOf := make([]int, routers)
	for r := range shardOf {
		shardOf[r] = r * shards / routers
	}

	// Topology: a bidirectional ring plus seed-derived chords, with
	// propagation delays in [10ms, 110ms).
	type edge struct {
		from, to int
		prop     float64
	}
	tr := rng.New(seed).Split(0xbeef)
	var edges []edge
	addEdge := func(a, b int) {
		edges = append(edges, edge{a, b, 0.01 + 0.1*tr.Float64()})
	}
	for r := 0; r < routers; r++ {
		addEdge(r, (r+1)%routers)
		addEdge((r+1)%routers, r)
	}
	for i := 0; i < routers/2; i++ {
		a := tr.Intn(routers)
		b := (a + 2 + tr.Intn(routers-1)) % routers
		if a != b {
			addEdge(a, b)
		}
	}
	minProp := edges[0].prop
	for _, e := range edges {
		if e.prop < minProp {
			minProp = e.prop
		}
	}
	if window <= 0 {
		window = minProp
	}

	logs := make([][]delivery, routers)
	outPorts := make([][]*des.Port, routers)
	ports := make([]*des.Port, len(edges))
	for li, e := range edges {
		e := e
		sEng := engines[shardOf[e.from]]
		rEng := engines[shardOf[e.to]]
		l := &graph.Link{From: graph.NodeID(e.from), To: graph.NodeID(e.to), Capacity: 1e6, PropDelay: e.prop}
		to := e.to
		var p *des.Port
		p = des.NewPort(sEng, l, 1e12, func(pkt *des.Packet) {
			logs[to] = append(logs[to], delivery{p.From, pkt.Serial, rEng.Now(), pkt.Hops})
			if pkt.Hops >= maxHops {
				rEng.FreePacket(pkt)
				return
			}
			pkt.Hops++
			out := outPorts[to]
			next := out[int((pkt.Serial+uint64(pkt.Hops))%uint64(len(out)))]
			if !next.Send(pkt) {
				rEng.FreePacket(pkt)
			}
		})
		p.SetPris(des.PriLinkTx(uint64(li)), des.PriLinkDeliver(uint64(li)))
		if rEng != sEng {
			p.BindReceiver(rEng)
		}
		ports[li] = p
		outPorts[e.from] = append(outPorts[e.from], p)
	}

	// Initial sends: per-router Split streams off the engine root RNG give
	// each router the exact same schedule whichever shard it lands on.
	for r := 0; r < routers; r++ {
		r := r
		eng := engines[shardOf[r]]
		stream := eng.RNG().Split(0x51ea + uint64(r))
		eng.WithOrigin(des.PriRouter(uint64(r)), func() {
			for i := 0; i < sends; i++ {
				at := stream.Float64() * meshDur * 0.8
				bits := 500 + stream.Float64()*8000
				serial := uint64(r)<<32 | uint64(i)
				eng.Schedule(at, func() {
					out := outPorts[r]
					// Pooled packets keep stale fields; reset everything the
					// mesh reads.
					pkt := eng.NewPacket()
					pkt.Serial = serial
					pkt.Src = graph.NodeID(r)
					pkt.Bits = bits
					pkt.Created = eng.Now()
					pkt.Hops = 0
					pkt.Control = nil
					pkt.FlowID = 0
					if !out[int(serial)%len(out)].Send(pkt) {
						eng.FreePacket(pkt)
					}
				})
			}
		})
	}

	if plain {
		engines[0].Run(meshDur)
	} else {
		c := despart.New(engines, window)
		for li, e := range edges {
			if shardOf[e.from] != shardOf[e.to] {
				c.AddInbound(shardOf[e.to], ports[li])
			}
		}
		c.RunUntil(meshDur)
	}
	var events int64
	for _, e := range engines {
		events += e.EventsFired()
	}
	return logs, events
}

// TestShardEquivalence: the per-router delivery logs — source, serial, hop
// count, and exact float arrival time — and the total event count must match
// the plain single-engine run at every shard count.
func TestShardEquivalence(t *testing.T) {
	leaktest.Check(t)
	const routers = 9
	base, baseEvents := runMesh(t, 7, routers, 0, 20, 8, 0)
	var total int
	for _, l := range base {
		total += len(l)
	}
	if total == 0 {
		t.Fatal("baseline mesh delivered nothing")
	}
	for _, shards := range []int{1, 2, 3, 4, 9} {
		logs, events := runMesh(t, 7, routers, shards, 20, 8, 0)
		if events != baseEvents {
			t.Errorf("shards=%d: %d events fired, baseline %d", shards, events, baseEvents)
		}
		if !reflect.DeepEqual(logs, base) {
			t.Errorf("shards=%d: delivery logs diverge from plain-engine baseline", shards)
		}
	}
}

// TestWindowInvariance: the window width is a scheduling implementation
// detail — any value in (0, min cross-shard prop] must produce identical
// results.
func TestWindowInvariance(t *testing.T) {
	leaktest.Check(t)
	base, _ := runMesh(t, 11, 8, 0, 12, 6, 0)
	for _, div := range []float64{1, 2, 7.3} {
		logs, _ := runMesh(t, 11, 8, 4, 12, 6, 0.01/div)
		if !reflect.DeepEqual(logs, base) {
			t.Errorf("window=minProp/%v: delivery logs diverge", div)
		}
	}
}

// TestBarrierCadence pins where RunUntil leaves the shards: every call ends
// at a barrier with all engine clocks equal to its horizon, including a
// horizon shorter than one window, and the final step is inclusive (an
// event at exactly t fires, one just after it waits).
func TestBarrierCadence(t *testing.T) {
	leaktest.Check(t)
	engines := []*des.Engine{des.NewEngine(1), des.NewEngine(1)}
	c := despart.New(engines, 0.25)
	fired := make([][]float64, len(engines)) // one lane per shard
	for s, e := range engines {
		for _, at := range []float64{1.0, 1.1, 1.2} {
			e.Schedule(at+float64(s)*0.1, func() { fired[s] = append(fired[s], e.Now()) })
		}
	}
	for _, horizon := range []float64{1.0, 1.1} { // four windows, then less than one
		c.RunUntil(horizon)
		for s, e := range engines {
			if e.Now() != horizon {
				t.Errorf("RunUntil(%g): shard %d clock %g", horizon, s, e.Now())
			}
		}
	}
	if want := [][]float64{{1.0, 1.1}, {1.1}}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired %v by t=1.1, want %v", fired, want)
	}
}

// TestWiringPanics: the constructor and registration guards fire at build
// time rather than corrupting a run.
func TestWiringPanics(t *testing.T) {
	leaktest.Check(t)
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	expectPanic("no engines", func() { despart.New(nil, 1) })
	expectPanic("zero window", func() { despart.New([]*des.Engine{des.NewEngine(1)}, 0) })
	expectPanic("lookahead violation", func() {
		engines := []*des.Engine{des.NewEngine(1), des.NewEngine(1)}
		c := despart.New(engines, 0.5)
		l := &graph.Link{From: 0, To: 1, Capacity: 1e6, PropDelay: 0.1}
		p := des.NewPort(engines[0], l, 0, func(pkt *des.Packet) {})
		p.BindReceiver(engines[1])
		c.AddInbound(1, p)
	})
}

// TestSimpoolComposition is the oversubscription regression test: many
// sharded simulations fanned out on a small simpool budget must neither
// deadlock (TryAcquire never blocks) nor leak worker slots, and every
// simulation must still produce the baseline result — saturated runs just
// degrade to inline shard execution.
func TestSimpoolComposition(t *testing.T) {
	leaktest.Check(t)
	oldWorkers := simpool.Workers()
	defer simpool.SetWorkers(oldWorkers)
	simpool.SetWorkers(4)

	base, _ := runMesh(t, 13, 8, 0, 10, 6, 0)
	g := simpool.NewGroup()
	results := make([][][]delivery, 8)
	for i := range results {
		i := i
		g.Go(func() error {
			// Each task holds one of the four slots; its 8-shard coordinator
			// may TryAcquire at most the remaining ones.
			logs, _ := runMesh(t, 13, 8, 8, 10, 6, 0)
			results[i] = logs
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, logs := range results {
		if !reflect.DeepEqual(logs, base) {
			t.Errorf("sim %d under saturated pool diverges from baseline", i)
		}
	}
	// Every slot must be back: a full re-acquire succeeds.
	tok := simpool.TryAcquire(4)
	if tok.Held() != 4 {
		t.Fatalf("pool leaked worker slots: re-acquired %d of 4", tok.Held())
	}
	tok.Release()
}

// FuzzShardSchedule fuzzes the equivalence property itself: for any seed,
// mesh size, shard count, and send schedule, the sharded run must reproduce
// the plain single-engine run's per-router delivery order exactly. It stays
// in `make fuzz` as long as des-sf160's 2-shard row does (ROADMAP item 20).
func FuzzShardSchedule(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(2), uint8(8))
	f.Add(uint64(42), uint8(9), uint8(3), uint8(5))
	f.Add(uint64(7), uint8(2), uint8(2), uint8(1))
	f.Add(uint64(0xdead), uint8(12), uint8(8), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, routers, shards, sends uint8) {
		r := 2 + int(routers)%11 // 2..12
		p := 1 + int(shards)%r   // 1..routers
		n := 1 + int(sends)%12   // 1..12
		base, baseEvents := runMesh(t, seed, r, 0, n, 6, 0)
		logs, events := runMesh(t, seed, r, p, n, 6, 0)
		if events != baseEvents {
			t.Fatalf("seed=%d routers=%d shards=%d sends=%d: %d events vs baseline %d",
				seed, r, p, n, events, baseEvents)
		}
		if !reflect.DeepEqual(logs, base) {
			t.Fatalf("seed=%d routers=%d shards=%d sends=%d: delivery logs diverge", seed, r, p, n)
		}
	})
}
