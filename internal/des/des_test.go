package des

import (
	"math"
	"testing"

	"minroute/internal/graph"
	"minroute/internal/linkcost"
)

func mkLink(t testing.TB, capacity, prop float64) *graph.Link {
	t.Helper()
	g := graph.New()
	a, b := g.AddNode("a"), g.AddNode("b")
	if err := g.AddLink(a, b, capacity, prop); err != nil {
		t.Fatal(err)
	}
	l, _ := g.Link(a, b)
	return l
}

func TestEngineClock(t *testing.T) {
	e := NewEngine(1)
	var fired []float64
	e.Schedule(2, func() { fired = append(fired, e.Now()) })
	e.After(1, func() { fired = append(fired, e.Now()) })
	e.Run(10)
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("fired = %v", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %v, want 10", e.Now())
	}
}

func TestEngineRunStopsAtBoundary(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.Schedule(5, func() { fired = true })
	e.Run(4)
	if fired {
		t.Fatal("event beyond Run boundary fired")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	e.Run(5)
	if !fired {
		t.Fatal("event at boundary did not fire")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(5, func() {})
	e.Run(5)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past did not panic")
		}
	}()
	e.Schedule(1, func() {})
}

func TestAfterNegativePanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestCancelEvent(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.After(1, func() { fired = true })
	e.Cancel(ev)
	e.Run(2)
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestRunAllBudget(t *testing.T) {
	e := NewEngine(1)
	var reschedule func()
	reschedule = func() { e.After(1, reschedule) }
	e.After(1, reschedule)
	defer func() {
		if recover() == nil {
			t.Fatal("runaway RunAll did not panic")
		}
	}()
	e.RunAll(100)
}

func TestPortDeliversAfterServicePlusProp(t *testing.T) {
	e := NewEngine(1)
	var deliveredAt float64
	l := mkLink(t, 1e6, 0.01) // 1 Mb/s, 10 ms prop
	p := NewPort(e, l, 0, func(pkt *Packet) { deliveredAt = e.Now() })
	pkt := &Packet{FlowID: 0, Bits: 1000, Created: 0}
	if !p.Send(pkt) {
		t.Fatal("send failed")
	}
	e.Run(1)
	want := 1000.0/1e6 + 0.01
	if math.Abs(deliveredAt-want) > 1e-12 {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
	if p.SentPackets != 1 || p.SentBits != 1000 {
		t.Fatalf("counters: %d pkts %v bits", p.SentPackets, p.SentBits)
	}
}

func TestPortFIFOOrderPreserved(t *testing.T) {
	e := NewEngine(1)
	var order []int
	l := mkLink(t, 1e6, 0.005)
	p := NewPort(e, l, 1e9, func(pkt *Packet) { order = append(order, pkt.FlowID) })
	for i := 0; i < 5; i++ {
		p.Send(&Packet{FlowID: i, Bits: 800})
	}
	e.Run(1)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestPortControlPriority(t *testing.T) {
	e := NewEngine(1)
	var order []int
	l := mkLink(t, 1e6, 0)
	p := NewPort(e, l, 1e9, func(pkt *Packet) { order = append(order, pkt.FlowID) })
	// One data packet starts transmitting; more data queues; then control
	// arrives and must jump the data queue.
	p.Send(&Packet{FlowID: 1, Bits: 8000})
	p.Send(&Packet{FlowID: 2, Bits: 8000})
	p.Send(&Packet{FlowID: 3, Bits: 100, Control: "lsu"})
	e.Run(1)
	if len(order) != 3 || order[0] != 1 || order[1] != 3 || order[2] != 2 {
		t.Fatalf("order = %v, want [1 3 2]", order)
	}
}

func TestPortDropTail(t *testing.T) {
	e := NewEngine(1)
	l := mkLink(t, 1e3, 0) // slow link so the queue fills
	delivered := 0
	p := NewPort(e, l, 1000, func(pkt *Packet) { delivered++ })
	// First packet enters service immediately; the next fills the queue.
	sent := 0
	for i := 0; i < 5; i++ {
		if p.Send(&Packet{FlowID: i, Bits: 600}) {
			sent++
		}
	}
	if p.DroppedPackets == 0 {
		t.Fatal("no drops despite overflow")
	}
	if sent+int(p.DroppedPackets) != 5 {
		t.Fatalf("sent %d + dropped %d != 5", sent, p.DroppedPackets)
	}
	e.Run(100)
	if delivered != sent {
		t.Fatalf("delivered %d, accepted %d", delivered, sent)
	}
}

func TestPortControlNeverDropped(t *testing.T) {
	e := NewEngine(1)
	l := mkLink(t, 1e3, 0)
	delivered := 0
	p := NewPort(e, l, 100, func(pkt *Packet) { delivered++ })
	for i := 0; i < 50; i++ {
		if !p.Send(&Packet{Bits: 600, Control: "lsu"}) {
			t.Fatal("control packet dropped on an up link")
		}
	}
	e.Run(100)
	if delivered != 50 {
		t.Fatalf("delivered %d control packets, want 50", delivered)
	}
}

func TestPortDown(t *testing.T) {
	e := NewEngine(1)
	l := mkLink(t, 1e6, 0.001)
	delivered := 0
	p := NewPort(e, l, 1e9, func(pkt *Packet) { delivered++ })
	p.Send(&Packet{Bits: 8000})
	p.Send(&Packet{Bits: 8000})
	p.SetDown(true)
	if p.Send(&Packet{Bits: 8000}) {
		t.Fatal("send on a down link succeeded")
	}
	e.Run(1)
	if delivered != 0 {
		t.Fatalf("delivered %d packets through a down link", delivered)
	}
	if !p.Down() {
		t.Fatal("Down() = false")
	}
	// Recovery: new packets flow again.
	p.SetDown(false)
	p.Send(&Packet{Bits: 8000})
	e.Run(2)
	if delivered != 1 {
		t.Fatalf("delivered %d after recovery, want 1", delivered)
	}
}

func TestPortMeterCountsDataOnly(t *testing.T) {
	e := NewEngine(1)
	l := mkLink(t, 1e6, 0)
	p := NewPort(e, l, 1e9, func(pkt *Packet) {})
	p.Send(&Packet{Bits: 8000})
	p.Send(&Packet{Bits: 400, Control: "lsu"})
	e.Run(1)
	if p.DataPackets != 1 || p.DataBits != 8000 {
		t.Fatalf("data counters at %d packets / %v bits, want 1 / 8000 (data only)", p.DataPackets, p.DataBits)
	}
	if p.SentPackets != 2 {
		t.Fatalf("SentPackets = %d, want 2 (data and control)", p.SentPackets)
	}
}

// TestMM1SingleLink validates the whole pipeline against queueing theory:
// Poisson arrivals of exponentially sized packets through one port must see
// an average sojourn of 1/(mu-lambda).
func TestMM1SingleLink(t *testing.T) {
	e := NewEngine(7)
	const capacity = 1e6 // bits/s
	const meanBits = 8000.0
	mu := capacity / meanBits // 125 pkts/s
	lambda := 0.7 * mu

	l := mkLink(t, capacity, 0)
	var sum float64
	var n int
	p := NewPort(e, l, 1e12, func(pkt *Packet) {
		sum += e.Now() - pkt.Created
		n++
	})
	r := e.RNG().Split(1)
	var arrive func()
	arrive = func() {
		p.Send(&Packet{Bits: r.Exp(meanBits), Created: e.Now()})
		e.After(r.Exp(1/lambda), arrive)
	}
	e.After(r.Exp(1/lambda), arrive)
	e.Run(2000)

	got := sum / float64(n)
	want := 1 / (mu - lambda)
	if rel := math.Abs(got-want) / want; rel > 0.08 {
		t.Fatalf("M/M/1 sojourn = %v, theory %v (rel err %v, n=%d)", got, want, rel, n)
	}
}

// TestOnlineEstimatorThroughPort checks the full measurement path: the
// port's estimator must recover the M/M/1 marginal delay.
func TestOnlineEstimatorThroughPort(t *testing.T) {
	e := NewEngine(11)
	const capacity, meanBits = 1e6, 8000.0
	mu := capacity / meanBits
	lambda := 0.6 * mu
	l := mkLink(t, capacity, 0)
	p := NewPort(e, l, 1e12, func(pkt *Packet) {})
	p.Estimator = linkcost.NewOnlineEstimator(0, 1/mu)
	r := e.RNG().Split(2)
	var arrive func()
	arrive = func() {
		p.Send(&Packet{Bits: r.Exp(meanBits), Created: e.Now()})
		e.After(r.Exp(1/lambda), arrive)
	}
	e.After(0.01, arrive)
	e.Run(3000)
	got := p.Estimator.Take()
	want := linkcost.MM1Marginal(lambda, mu, 0)
	if rel := math.Abs(got-want) / want; rel > 0.15 {
		t.Fatalf("estimated marginal %v vs theory %v (rel %v)", got, want, rel)
	}
}

func TestPacketPoolRecycles(t *testing.T) {
	var pp PacketPool
	a := pp.Get()
	a.Control = []byte{1}
	pp.Put(a)
	b := pp.Get()
	if b != a {
		t.Fatal("Get after Put did not reuse the record")
	}
	if b.Control != nil {
		t.Fatal("Put did not release the control payload")
	}
	if c := pp.Get(); c == a {
		t.Fatal("empty pool handed out a live record")
	}
	pp.Put(nil) // must not panic
}

func TestLinkDownRecyclesInFlightPackets(t *testing.T) {
	e := NewEngine(1)
	l := mkLink(t, 1e6, 0.01)
	delivered := 0
	p := NewPort(e, l, 1e12, func(pkt *Packet) { delivered++; e.FreePacket(pkt) })
	for i := 0; i < 3; i++ {
		pkt := e.NewPacket()
		*pkt = Packet{Bits: 8000, Created: e.Now()}
		p.Send(pkt)
	}
	// Fail the link while packets sit queued and one is mid-flight: every
	// record must come back through the pool with nothing delivered.
	e.Run(0.001)
	p.SetDown(true)
	e.Run(1)
	if delivered != 0 {
		t.Fatalf("delivered %d packets over a failed link", delivered)
	}
	if got := len(e.packets.free); got != 3 {
		t.Fatalf("pool recovered %d of 3 packets lost to the failure", got)
	}
}

func TestFlowConservationThroughPort(t *testing.T) {
	e := NewEngine(3)
	l := mkLink(t, 1e6, 0.001)
	delivered := int64(0)
	p := NewPort(e, l, 4000, func(pkt *Packet) { delivered++ })
	sentOK := int64(0)
	for i := 0; i < 200; i++ {
		at := float64(i) * 0.0001
		e.Schedule(at, func() {
			if p.Send(&Packet{Bits: 800}) {
				sentOK++
			}
		})
	}
	e.Run(10)
	if delivered != sentOK {
		t.Fatalf("conservation violated: accepted %d, delivered %d", sentOK, delivered)
	}
}

func BenchmarkPortThroughput(b *testing.B) {
	e := NewEngine(1)
	g := graph.New()
	a, c := g.AddNode("a"), g.AddNode("b")
	_ = g.AddLink(a, c, 1e9, 0)
	l, _ := g.Link(a, c)
	p := NewPort(e, l, 1e12, func(pkt *Packet) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Send(&Packet{Bits: 8000})
		e.Step()
	}
}

// BenchmarkLinkPipeline drives the full per-packet data path the simulator
// runs in its hot loop — pool Get, Send, transmission event, propagation
// event, delivery, pool Put — and must be allocation-free at steady state.
func BenchmarkLinkPipeline(b *testing.B) {
	e := NewEngine(1)
	l := mkLink(b, 1e9, 0.0001)
	p := NewPort(e, l, 1e12, func(pkt *Packet) { e.FreePacket(pkt) })
	r := e.RNG().Split(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := e.NewPacket()
		*pkt = Packet{Bits: r.Exp(8000), Created: e.Now()}
		p.Send(pkt)
		// Drain the transmission and propagation events this packet queued.
		for e.Pending() > 0 {
			e.Step()
		}
	}
}

// BenchmarkLinkPipelineNoPool is the same loop with a fresh packet per
// arrival and no recycling, quantifying the allocation diet's win.
func BenchmarkLinkPipelineNoPool(b *testing.B) {
	e := NewEngine(1)
	l := mkLink(b, 1e9, 0.0001)
	p := NewPort(e, l, 1e12, func(pkt *Packet) {})
	r := e.RNG().Split(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Send(&Packet{Bits: r.Exp(8000), Created: e.Now()})
		for e.Pending() > 0 {
			e.Step()
		}
	}
}
