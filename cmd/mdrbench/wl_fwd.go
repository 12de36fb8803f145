package main

import (
	"runtime"
	"sync/atomic"
	"time"

	"minroute/internal/dataplane"
	"minroute/internal/graph"
	"minroute/internal/node"
	"minroute/internal/telemetry"
	"minroute/internal/transport"
	"minroute/internal/wire"
)

// Relay-line constants. The window keeps the closed-loop sender under the
// in-memory fabric's ring capacity: its ports drop silently when a tight
// producer outruns the receive loops, and the workload measures
// throughput, not loss. hopLatency is the emulated per-hop link latency
// the forwarders add arithmetically to each packet's delay.
const (
	relayWindow   = 2048
	relayLineHops = 3
	// relaySegment is how many packets one separately timed closed-loop
	// segment of phase A sends. The packet rate is the median segment's: on
	// two cores the line's three busy goroutines change places every second
	// or so and a segment's time with them, 90 to 200 ms, so one run takes
	// the median over as many seconds of segments as it can afford.
	relaySegment  = 100_000
	hopLatency    = 1e-3
	sendSampleLog = 6 // under tracing, every 64th Send becomes a span
	packetBits    = 8192
	// relayFlows is how many sticky flows the generator spreads packets
	// over; the sink keeps statistics per flow, so this bounds its memory.
	relayFlows = 64
	// openLoopBase is the first flow ID of the open-loop phase; the sink
	// tells the two phases' packets apart by it.
	openLoopBase = 1 << 40
)

// relayLine is harness-built forwarders in a line on the in-memory
// datagram fabric — origin → relay → sink for the workload, origin → sink
// for the one-hop probe — with the control plane absent.
type relayLine struct {
	fwds      []*dataplane.Forwarder
	clk       *node.WallClock
	dst       graph.NodeID
	delivered atomic.Int64
	// Open-loop bookkeeping, indexed by packet number: due is written by
	// the generator before the Send, transit by the sink's receive loop;
	// the generator reads transit only after it has seen delivered reach
	// the offered count. The line is one FIFO path, so the k-th packet
	// delivered is the k-th sent — unless one was lost, which fails the
	// run anyway.
	due, transit []float64
}

func newRelayLine(hops int) *relayLine {
	rl := &relayLine{clk: node.NewWallClock(), dst: graph.NodeID(hops - 1)}
	net := transport.NewMemNet()
	for i := 0; i < hops; i++ {
		cfg := dataplane.Config{
			Self:      graph.NodeID(i),
			Nodes:     hops,
			Conn:      net.Bind(),
			Clock:     rl.clk,
			Metrics:   telemetry.NewRegistry(0),
			LatencyOf: func(graph.NodeID, uint32) float64 { return hopLatency },
		}
		if i == hops-1 {
			cfg.OnDeliver = rl.onDeliver
		}
		rl.fwds = append(rl.fwds, dataplane.New(cfg))
	}
	for i := 0; i+1 < hops; i++ {
		next := graph.NodeID(i + 1)
		rl.fwds[i].SetPeer(next, rl.fwds[i+1].LocalAddr(), nil)
		rl.fwds[i].Publish([]dataplane.Entry{{Dst: rl.dst, Hops: []graph.NodeID{next}, Weights: []float64{1}}})
	}
	return rl
}

func (rl *relayLine) onDeliver(p *wire.DataPacket, _ float64) {
	if p.FlowID >= openLoopBase {
		i := rl.delivered.Load()
		rl.transit[i] = now().Seconds() - rl.due[i]
	}
	rl.delivered.Add(1)
}

func (rl *relayLine) close() {
	for _, f := range rl.fwds {
		f.Close()
	}
}

// awaitDelivered waits until n packets have been delivered or the drain
// timeout passes, and returns how many were.
func (rl *relayLine) awaitDelivered(n int64) int64 {
	for deadline := now() + drainTimeout; rl.delivered.Load() < n && now() < deadline; {
		time.Sleep(200 * time.Microsecond)
	}
	return rl.delivered.Load()
}

// closedLoop is one segment of phase A: n packets, at most relayWindow in
// flight, timed until the last is delivered.
func (rl *relayLine) closedLoop(c *runCtx, rec *recorder, n int) (elapsed float64, delivered int64) {
	rl.delivered.Store(0)
	start := now()
	for i := 0; i < n; i++ {
		for int64(i)-rl.delivered.Load() >= relayWindow {
			runtime.Gosched()
		}
		send := func() {
			if err := rl.fwds[0].Send(rl.dst, uint64(i%relayFlows), packetBits); err != nil {
				c.op(1)
				c.failf("Forwarder.Send: %v", err)
			}
		}
		if rec != nil && i&(1<<sendSampleLog-1) == 0 {
			rec.do("dataplane.send", send)
		} else {
			send()
		}
	}
	delivered = rl.awaitDelivered(int64(n))
	return secondsSince(start), delivered
}

// openLoopPhase is phase B: packets on a fixed schedule whatever the line
// does with them, each timed from the instant it was due.
func (rl *relayLine) openLoopPhase(c *runCtx, pps float64, dur time.Duration) (elapsed float64, offered, delivered int64, lateUs []float64) {
	n := int(pps * dur.Seconds())
	rl.due, rl.transit = make([]float64, n), make([]float64, n)
	rl.delivered.Store(0)
	start := now() + time.Millisecond
	began := now()
	for i := 0; i < n; i++ {
		due := dueAt(start, i, pps)
		lateUs = append(lateUs, float64(pace(due))/float64(time.Microsecond))
		rl.due[i] = due.Seconds()
		if err := rl.fwds[0].Send(rl.dst, openLoopBase+uint64(i%relayFlows), packetBits); err != nil {
			c.op(1)
			c.failf("Forwarder.Send: %v", err)
		}
	}
	delivered = rl.awaitDelivered(int64(n))
	return secondsSince(began), int64(n), delivered, lateUs
}

// fwdRelayRep pushes packets down the relay line closed loop for the
// packet rate, then open loop for the per-packet transit time.
func fwdRelayRep(c *runCtx, rec *recorder) repOut {
	out := repOut{layer: make(map[string]float64)}
	nA := c.pick(5_000_000, 5_000)
	segN := c.pick(relaySegment, 500)
	// 20 k pps keeps the 4096-slot inbox rings 200 ms of forwarder stall
	// away from overflowing: a noisy two-core host does stall a goroutine
	// for tens of milliseconds, and a dropped packet is a failed operation.
	pps, dur := 20_000.0, time.Second
	if c.quick {
		pps, dur = 5_000, 200*time.Millisecond
	}

	rl, setupS := timeSetup(func() *relayLine { return newRelayLine(relayLineHops) }, (*relayLine).close)
	out.setupS = setupS
	defer rl.close()

	var elapsedA float64
	var deliveredA int64
	segS := make([]float64, nA/segN)
	for i := range segS {
		var d int64
		segS[i], d = rl.closedLoop(c, rec, segN)
		elapsedA += segS[i]
		deliveredA += d
	}
	elapsedB, offeredB, deliveredB, lateUs := rl.openLoopPhase(c, pps, dur)

	c.accountPackets(int64(nA)+offeredB, deliveredA+deliveredB, "")

	var d digest
	d.ints(int64(nA), deliveredA, offeredB, deliveredB)
	out.hash = d.sum()
	out.wallS = elapsedA + elapsedB
	out.events, out.eventsS = float64(segN), median(segS) // the median segment
	out.delivery = float64(deliveredB) / float64(offeredB)
	transit := sortedCopy(rl.transit)
	// The median packet's delay: emulated link latency plus p50 wall
	// transit. The mean of wall transit on a small host is a few scheduler
	// stalls' worth of tail, not the forwarding path's cost.
	out.delayMs = ((relayLineHops-1)*hopLatency + percentile(transit, 50)) * 1e3
	out.layer["pps"] = out.events / out.eventsS
	out.layer["transit_us_p50"] = percentile(transit, 50) * 1e6
	out.layer["dataplane.transit_us_p99"] = percentile(transit, 99) * 1e6
	out.layer["harness.gen_late_us_p99"] = percentile(sortedCopy(lateUs), 99)
	for _, f := range rl.fwds {
		snap := f.Snapshot()
		out.layer["dataplane.forwarded"] += snap.Forwarded
		out.layer["dataplane.drop_no_route"] += snap.DropNoRoute
		out.layer["dataplane.ttl_expired"] += snap.TTLExpired
		out.layer["dataplane.looped"] += snap.Looped
	}
	if rec != nil {
		out.layer["dataplane.send_ns"] = median(rec.durations("dataplane.send")) * 1e9
	}
	return out
}
