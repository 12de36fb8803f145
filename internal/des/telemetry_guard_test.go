package des

import (
	"testing"

	"minroute/internal/telemetry"
)

// TestTelemetryDisabledZeroAlloc is the telemetry-overhead guard wired into
// `make check` (target telemetry-guard): with no Probe installed, the full
// per-packet pipeline — pool Get, Send, transmission, propagation, delivery,
// pool Put — must stay allocation-free. Each probe site is one nil check;
// this test fails if instrumentation ever leaks an allocation onto the
// disabled path.
func TestTelemetryDisabledZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
	e := NewEngine(1)
	l := mkLink(t, 1e9, 0.0001)
	p := NewPort(e, l, 1e12, func(pkt *Packet) { e.FreePacket(pkt) })
	r := e.RNG().Split(1)
	run := func() {
		pkt := e.NewPacket()
		*pkt = Packet{Bits: r.Exp(8000), Created: e.Now()}
		p.Send(pkt)
		for e.Pending() > 0 {
			e.Step()
		}
	}
	// Warm the packet pool and event queue to steady state before counting.
	for i := 0; i < 256; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(1000, run); allocs != 0 {
		t.Fatalf("disabled-telemetry link pipeline allocates %v/op, want 0", allocs)
	}
}

// BenchmarkLinkPipelineTelemetry is BenchmarkLinkPipeline with a full link
// probe installed (events plus the queue-depth histogram), quantifying the
// enabled-path cost per packet. Packets are numbered the way a flow's
// source numbers them (core.Build): in "kept" every packet's number is one
// the 1-in-32 packet sample keeps, so each enqueue is recorded; in "mixed"
// they count from 1, so 31 of 32 take the skip, as in a figure. mdrbench's
// telemetry.link_probe_ns still prices only kept packets.
func BenchmarkLinkPipelineTelemetry(b *testing.B) {
	for _, c := range []struct {
		name string
		step uint64 // distance between consecutive packet numbers
	}{{"kept", 32}, {"mixed", 1}} {
		b.Run(c.name, func(b *testing.B) {
			e := NewEngine(1)
			l := mkLink(b, 1e9, 0.0001)
			p := NewPort(e, l, 1e12, func(pkt *Packet) { e.FreePacket(pkt) })
			reg := telemetry.NewRegistry(telemetry.DefaultBucketWidth)
			p.Probe = &telemetry.LinkProbe{
				Tracer:    telemetry.NewTracer(2, telemetry.DefaultRingCap),
				From:      0,
				To:        1,
				QueueBits: reg.Histogram("bench.queue.bits"),
				TxBits:    reg.Counter("bench.tx.bits"),
				LostPkts:  reg.Counter("bench.lost.pkts"),
			}
			r := e.RNG().Split(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pkt := e.NewPacket()
				*pkt = Packet{Bits: r.Exp(8000), Created: e.Now(), Serial: 1<<40 | uint64(i+1)*c.step}
				p.Send(pkt)
				for e.Pending() > 0 {
					e.Step()
				}
			}
		})
	}
}
