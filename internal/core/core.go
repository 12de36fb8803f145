// Package core assembles the complete simulated network: topology, one
// router.Node per router, one des.Port per directed link, traffic sources,
// and per-flow delay measurement. It is the library's top-level API — the
// examples, the experiment harness, and the benchmarks all drive
// simulations through core.Build and Network.Run.
package core

import (
	"fmt"
	"math"

	"minroute/internal/alloc"
	"minroute/internal/des"
	"minroute/internal/despart"
	"minroute/internal/graph"
	"minroute/internal/lfi"
	"minroute/internal/linkcost"
	"minroute/internal/lsu"
	"minroute/internal/mpda"
	"minroute/internal/router"
	"minroute/internal/telemetry"
	"minroute/internal/topo"
	"minroute/internal/traffic"
)

// framingBits is charged per LSU packet on top of the payload (layer-2
// headers etc.).
const framingBits = 24 * 8

// Options configures a simulation.
type Options struct {
	// Router is the per-node configuration (mode, Tl, Ts, ...). The zero
	// value selects router.Defaults(); any other value is used as given.
	Router router.Config
	// Seed drives every random choice in the run.
	Seed uint64
	// Warmup is the settling time before measurements start.
	Warmup float64
	// Duration is the measurement period after warmup.
	Duration float64
	// Source builds the traffic source for a flow; nil selects Poisson with
	// the router's mean packet size.
	Source func(f topo.Flow) traffic.Source
	// Telemetry, when non-nil, instruments the whole network — control and
	// data planes — into the capture's event bus and metrics registry, from
	// which telemetry.Paths rebuilds packet paths. Nil (the default) costs
	// one branch per probe site and nothing else. A capture has one writer,
	// the simulation's engine, so Build panics if Shards is above 1 too.
	Telemetry *telemetry.Capture
	// Shards splits the routers across this many event-engine shards
	// executed in conservative lockstep windows (internal/despart); 0 or 1
	// runs the classic single-engine simulation. The report is identical at
	// any shard count. Only cmd/mdrbench's des-sf160 workload sets it, for
	// its despart.identical and despart.speedup_s2 rows; it goes when that
	// workload drops them (ROADMAP items 2e and 20).
	Shards int
}

// DefaultOptions returns the settings of the paper's headline experiments:
// MP-TL-10-TS-2, 30 s warmup, 60 s measurement.
func DefaultOptions() Options {
	return Options{
		Router:   router.Defaults(),
		Seed:     1,
		Warmup:   30,
		Duration: 60,
	}
}

// Network is an assembled simulation.
//
// Sharded runs (Options.Shards > 1) split the routers across engines; every
// piece of mutable state below is owned by exactly one shard (per-router
// and per-flow slices — a flow's source and destination routers each own
// their own lanes) or written only at barriers, which is what lets the
// shards run without locks. Eng is always the shard-0 engine: it is the
// harness clock, and at every barrier all shard clocks are equal to it.
type Network struct {
	Eng   *des.Engine
	Graph *graph.Graph
	Nodes map[graph.NodeID]*router.Node
	Ports map[[2]graph.NodeID]*des.Port
	Flows []topo.Flow
	opt   Options

	// part coordinates the shards of a sharded run; nil when serial.
	part *despart.Coordinator
	// engines[s] is shard s's engine; engines[shardOf[id]] owns router id.
	engines []*des.Engine
	shardOf []int

	// SentPackets[x] counts packets offered by flow x after warmup.
	SentPackets []int64
	// controlMsgs/controlBits count LSU transmissions per sending router
	// (one writer lane per router; ControlMessages/ControlBits fold them).
	controlMsgs []int64
	controlBits []float64
	// tel and its derived probes are nil unless Options.Telemetry was set.
	tel        *telemetry.Capture
	nodeProbes *telemetry.NodeProbes
	telDelay   *telemetry.Histogram
	warmupDone bool
	// maxHops[id] is the largest hop count delivered at router id.
	maxHops []int
	// flowSerial[x] counts flow x's generated packets; the wire serial packs
	// (x+1) above it so serials stay unique without a global counter.
	flowSerial []uint64
	// flows[x] is flow x's record at its destination.
	flows []flowStats
	// failed holds the explicitly failed duplex links (see LinkUp), under
	// both directed keys like Ports.
	failed map[[2]graph.NodeID]bool
}

// ControlMessages returns the LSU transmissions since the run began,
// folded over the per-router lanes.
func (n *Network) ControlMessages() int64 {
	var t int64
	for _, v := range n.controlMsgs {
		t += v
	}
	return t
}

// ControlBits returns the wire size of all LSUs sent, folded over the
// per-router lanes in ascending router order.
func (n *Network) ControlBits() float64 {
	var t float64
	for _, v := range n.controlBits {
		t += v
	}
	return t
}

// Engines returns the per-shard engines (length 1 for a serial run).
// cmd/mdrbench sums EventsFired over it; like Options.Shards it stays only
// until des-sf160 drops its sharded rows.
func (n *Network) Engines() []*des.Engine { return n.engines }

// Delivered returns how many of flow x's packets have reached its
// destination since BeginMeasurement, or since the run began if it has not
// been called.
func (n *Network) Delivered(x int) int64 { return n.flows[x].count }

// Build wires the network described by net under the given options.
func Build(net *topo.Network, opt Options) *Network {
	if opt.Router == (router.Config{}) {
		opt.Router = router.Defaults()
	}
	numNodes := net.Graph.NumNodes()
	shards := opt.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > 1 && opt.Telemetry != nil {
		panic("core: telemetry needs a serial run (Options.Shards > 1 with Options.Telemetry set)")
	}
	if shards > numNodes {
		shards = numNodes
	}
	n := &Network{
		Graph:       net.Graph,
		Nodes:       make(map[graph.NodeID]*router.Node),
		Ports:       make(map[[2]graph.NodeID]*des.Port),
		Flows:       net.Flows,
		SentPackets: make([]int64, len(net.Flows)),
		opt:         opt,
		engines:     make([]*des.Engine, shards),
		shardOf:     make([]int, numNodes),
		failed:      make(map[[2]graph.NodeID]bool),
	}
	// Every shard engine is seeded identically. That is deliberate: nothing
	// ever draws from a root RNG directly — routers and sources derive
	// private streams via Split, a pure function of the parent state — so
	// identical roots give every component the exact stream it gets in a
	// serial run, whichever shard it landed on.
	for s := range n.engines {
		n.engines[s] = des.NewEngine(opt.Seed)
	}
	n.Eng = n.engines[0]
	// Contiguous partition: shard s owns routers [s*N/P, (s+1)*N/P).
	for id := 0; id < numNodes; id++ {
		n.shardOf[id] = id * shards / numNodes
	}
	n.controlMsgs = make([]int64, numNodes)
	n.controlBits = make([]float64, numNodes)
	n.maxHops = make([]int, numNodes)
	n.flowSerial = make([]uint64, len(net.Flows))
	// Each flow seeds its own reservoir-sampling stream so percentile
	// estimates stay decorrelated.
	n.flows = make([]flowStats, len(net.Flows))
	for x := range n.flows {
		n.flows[x] = newFlowStats(uint64(x))
	}
	if opt.Telemetry != nil {
		n.tel = opt.Telemetry
		n.tel.Trace.SetOrigin(n.Eng.Origin)
		reg := n.tel.Metrics
		n.nodeProbes = &telemetry.NodeProbes{
			Tracer:    n.tel.Trace,
			ActiveDur: reg.Histogram("mpda.active.duration"),
			Converge: &telemetry.ConvergeMeter{
				Lag:  reg.Histogram("converge.lag"),
				Last: reg.Gauge("converge.last"),
			},
		}
		n.telDelay = reg.Histogram("pkt.delay")
	}

	// Nodes first (the LSU sender closure reads the port map lazily, so the
	// ports can be created afterwards).
	for _, id := range net.Graph.Nodes() {
		n.Nodes[id] = router.New(n.engines[n.shardOf[id]], id, numNodes, opt.Router, n.lsuSender(id))
		if n.nodeProbes != nil {
			n.Nodes[id].SetTelemetry(n.nodeProbes)
		}
	}

	// Ports: one per directed link, delivering to the receiving node. The
	// port lives on the sender's engine; when the receiver is on another
	// shard, BindReceiver routes delivery through the coordinator's
	// mailboxes. The origin priorities come from the global link index, so
	// equal-time link events order identically at every shard count.
	minXProp := math.Inf(1)
	for li, l := range net.Graph.Links() {
		l := l
		sEng := n.engines[n.shardOf[l.From]]
		rEng := n.engines[n.shardOf[l.To]]
		to := n.Nodes[l.To]
		port := des.NewPort(sEng, l, des.DefaultQueueBits, func(pkt *des.Packet) {
			if pkt.IsControl() {
				// The LSU is fully consumed inside HandleControl; the
				// packet record goes straight back to the pool.
				to.HandleControl(pkt)
				rEng.FreePacket(pkt)
			} else {
				to.HandleData(pkt) // the router recycles data packets
			}
		})
		port.SetPris(des.PriLinkTx(uint64(li)), des.PriLinkDeliver(uint64(li)))
		if rEng != sEng {
			port.BindReceiver(rEng)
			if l.PropDelay < minXProp {
				minXProp = l.PropDelay
			}
		}
		if n.tel != nil {
			reg := n.tel.Metrics
			link := fmt.Sprintf("link.%d-%d", l.From, l.To)
			port.Probe = &telemetry.LinkProbe{
				Tracer:    n.tel.Trace,
				From:      l.From,
				To:        l.To,
				QueueBits: reg.Histogram(link + ".queue.bits"),
				TxBits:    reg.Counter(link + ".tx.bits"),
				LostPkts:  reg.Counter(link + ".lost.pkts"),
			}
		}
		n.Ports[[2]graph.NodeID{l.From, l.To}] = port
		n.Nodes[l.From].AttachPort(l.To, port)
	}

	if shards > 1 {
		n.part = despart.New(n.engines, minXProp)
		for _, l := range net.Graph.Links() {
			if s, r := n.shardOf[l.From], n.shardOf[l.To]; s != r {
				n.part.AddInbound(r, n.Ports[[2]graph.NodeID{l.From, l.To}])
			}
		}
	}

	// Delay and reordering measurement at each flow destination.
	for _, id := range net.Graph.Nodes() {
		node := n.Nodes[id]
		id := id
		eng := n.engines[n.shardOf[id]]
		node.OnArrive = func(pkt *des.Packet) {
			if pkt.FlowID >= 0 && pkt.FlowID < len(n.flows) {
				delay := eng.Now() - pkt.Created
				n.flows[pkt.FlowID].arrive(delay, pkt.Serial)
				if pkt.Hops > n.maxHops[id] {
					n.maxHops[id] = pkt.Hops
				}
				if n.tel != nil {
					n.telDelay.Observe(eng.Now(), delay)
					n.tel.Trace.EmitPkt(eng.Now(), telemetry.KindPktDeliver, id, graph.None, pkt.Dst, int32(pkt.FlowID), uint32(pkt.Serial), delay)
				}
			}
		}
	}

	// Traffic sources. Each source lives on its flow's source-router shard
	// and runs its whole event chain under the flow's own origin priority —
	// the random arrival stream is identical at every shard count because
	// Split is a pure function of the identically seeded root state.
	for x, f := range n.Flows {
		x, f := x, f
		src := n.sourceFor(f)
		eng := n.engines[n.shardOf[f.Src]]
		stream := eng.RNG().Split(0x7afc + uint64(x))
		node := n.Nodes[f.Src]
		eng.WithOrigin(des.PriSource(uint64(x)), func() {
			src.Start(func(d float64, fn func()) { eng.After(d, fn) }, stream, func(bits float64) {
				if n.warmupDone {
					n.SentPackets[x]++
				}
				pkt := eng.NewPacket()
				n.flowSerial[x]++
				*pkt = des.Packet{
					// The serial packs the flow above a per-flow count, so
					// serials stay unique without a cross-shard counter and
					// the per-flow order still supports reorder detection.
					Serial:  uint64(x+1)<<40 | n.flowSerial[x],
					FlowID:  x,
					Src:     f.Src,
					Dst:     f.Dst,
					Bits:    bits,
					Created: eng.Now(),
				}
				node.HandleData(pkt)
			})
		})
	}
	return n
}

func (n *Network) sourceFor(f topo.Flow) traffic.Source {
	if n.opt.Source != nil {
		return n.opt.Source(f)
	}
	return traffic.Poisson{RateBits: f.Rate, MeanPacketBits: linkcost.MeanPacketBits}
}

// lsuSender builds the mpda.Sender for node id: marshal, frame, and
// transmit in the lossless control band of the outgoing port.
func (n *Network) lsuSender(id graph.NodeID) mpda.Sender {
	return func(to graph.NodeID, m *lsu.Msg) {
		port, ok := n.Ports[[2]graph.NodeID{id, to}]
		if !ok {
			return // link vanished under the protocol
		}
		buf, err := m.Marshal()
		if err != nil {
			panic("core: marshal LSU: " + err.Error())
		}
		eng := n.engines[n.shardOf[id]]
		n.controlMsgs[id]++
		bits := float64(len(buf)*8 + framingBits)
		n.controlBits[id] += bits
		if n.tel != nil {
			ev := telemetry.NewEvent(eng.Now(), telemetry.KindLSUSend, id)
			ev.Peer = to
			ev.Value = bits
			n.tel.Trace.Emit(ev)
		}
		pkt := eng.NewPacket()
		*pkt = des.Packet{
			FlowID:  -1,
			Src:     id,
			Dst:     to,
			Bits:    bits,
			Created: eng.Now(),
			Control: buf,
		}
		if !port.Send(pkt) {
			eng.FreePacket(pkt)
		}
	}
}

// InstallStatic installs fixed routing parameters (e.g. Gallager's OPT
// solution): phi[j][i] is the fraction vector router i uses toward
// destination j. Routers must be in ModeStatic for these to take effect.
func (n *Network) InstallStatic(phi [][]alloc.Split) {
	numNodes := n.Graph.NumNodes()
	for _, id := range n.Graph.Nodes() {
		mine := make([]alloc.Split, numNodes)
		for j := 0; j < numNodes; j++ {
			mine[j] = phi[j][id]
		}
		n.Nodes[id].InstallStatic(mine)
	}
}

// Start boots every router (flooding initial LSUs and arming timers).
func (n *Network) Start() {
	for _, id := range n.Graph.Nodes() {
		n.Nodes[id].Start()
	}
}

// Run executes warmup plus measurement and returns the per-flow report.
// It starts the routers if the clock is still at zero.
func (n *Network) Run() *Report {
	if n.Eng.Now() == 0 {
		n.Start()
	}
	n.RunUntil(n.opt.Warmup)
	n.BeginMeasurement()
	n.RunUntil(n.opt.Warmup + n.opt.Duration)
	return n.Report()
}

// RunUntil advances the simulation to time t (inclusive): the coordinator's
// lockstep windows for a sharded run, a plain engine run otherwise. On
// return every shard clock equals t, so harness-side mutation (faults,
// measurement boundaries) is safe.
func (n *Network) RunUntil(t float64) {
	if n.part != nil {
		n.part.RunUntil(t)
	} else {
		n.Eng.Run(t)
	}
}

// BeginMeasurement resets the per-flow statistics — delays and reordering
// alike — and starts counting offered packets from the current instant.
// Network.Run calls it at the end of warmup; harnesses that drive the
// engine directly (e.g. the chaos runner) call it themselves — typically
// right after Start, so the conservation oracle sees every packet of the
// run.
func (n *Network) BeginMeasurement() {
	for x := range n.flows {
		n.flows[x].reset()
	}
	n.warmupDone = true
}

// LinkUp reports the effective state of the duplex link a↔b: up iff it is
// not explicitly failed and neither endpoint is crashed — the rule chaos's
// protocol-level runner applies. The fault entry points below reconcile
// ports and routers against it, so any action order is valid as given.
func (n *Network) LinkUp(a, b graph.NodeID) bool {
	return !n.failed[[2]graph.NodeID{a, b}] && !n.Nodes[a].Down() && !n.Nodes[b].Down()
}

// setPorts takes both directions of a↔b down or up.
func (n *Network) setPorts(a, b graph.NodeID, down bool) {
	for _, pair := range [][2]graph.NodeID{{a, b}, {b, a}} {
		if p, ok := n.Ports[pair]; ok {
			p.SetDown(down)
		}
	}
}

// CrashNode takes router v down hard at the current simulation time: its
// ports stop carrying traffic in both directions, every neighbor sees the
// adjacent link fail, and the router itself loses all protocol state (see
// router.Crash). In-flight packets on the adjacent links are lost.
func (n *Network) CrashNode(v graph.NodeID) {
	node, ok := n.Nodes[v]
	if !ok || node.Down() {
		return
	}
	n.emitFault(telemetry.KindFaultStart, fmt.Sprintf("crash %d", v), v, graph.None)
	node.Crash()
	for _, k := range n.Graph.Neighbors(v) {
		n.setPorts(v, k, true)
		n.Nodes[k].LinkFailed(v)
	}
}

// RestartNode boots a crashed router from scratch and brings back, on both
// sides, the adjacent links LinkUp allows; the rest stay down (router.Start
// announces only neighbors whose port is up).
func (n *Network) RestartNode(v graph.NodeID) {
	node, ok := n.Nodes[v]
	if !ok || !node.Down() {
		return
	}
	n.emitFault(telemetry.KindFaultStop, fmt.Sprintf("restart %d", v), v, graph.None)
	var up []graph.NodeID
	for _, k := range n.Graph.Neighbors(v) {
		// v itself still reads Down until Restart, so apply the rest of the
		// LinkUp rule by hand.
		if !n.failed[[2]graph.NodeID{v, k}] && !n.Nodes[k].Down() {
			n.setPorts(v, k, false)
			up = append(up, k)
		}
	}
	node.Restart()
	for _, k := range up {
		n.Nodes[k].LinkRecovered(v)
	}
}

// FailLink takes the duplex link a↔b down at the current simulation time;
// it stays down, across crashes and restarts of its endpoints, until
// RestoreLink.
func (n *Network) FailLink(a, b graph.NodeID) {
	n.emitFault(telemetry.KindFaultStart, fmt.Sprintf("link-fail %d-%d", a, b), a, b)
	n.failed[[2]graph.NodeID{a, b}], n.failed[[2]graph.NodeID{b, a}] = true, true
	n.setPorts(a, b, true)
	n.Nodes[a].LinkFailed(b)
	n.Nodes[b].LinkFailed(a)
}

// RestoreLink repairs an explicitly failed link. The link comes back now
// if both endpoints are up, and otherwise when the crashed one restarts;
// restoring a link that is not failed does nothing.
func (n *Network) RestoreLink(a, b graph.NodeID) {
	if !n.failed[[2]graph.NodeID{a, b}] {
		return
	}
	delete(n.failed, [2]graph.NodeID{a, b})
	delete(n.failed, [2]graph.NodeID{b, a})
	if !n.LinkUp(a, b) {
		return
	}
	n.emitFault(telemetry.KindFaultStop, fmt.Sprintf("link-restore %d-%d", a, b), a, b)
	n.setPorts(a, b, false)
	n.Nodes[a].LinkRecovered(b)
	n.Nodes[b].LinkRecovered(a)
}

// emitFault records a fault marker in the network-scope ring and arms the
// convergence meter: the next routing-table commit anywhere closes the
// episode. a and b carry the affected endpoints (graph.None when absent).
func (n *Network) emitFault(k telemetry.Kind, label string, a, b graph.NodeID) {
	if n.tel == nil {
		return
	}
	now := n.Eng.Now()
	n.nodeProbes.Converge.TopoEvent(now)
	ev := telemetry.NewEvent(now, k, graph.None)
	ev.Peer = a
	ev.Dst = b
	ev.Label = label
	n.tel.Trace.Emit(ev)
}

// Telemetry returns the capture attached at Build (nil when telemetry is
// off). The chaos harness uses it to record fault types core itself does
// not originate (cost spikes, control perturbation).
func (n *Network) Telemetry() *telemetry.Capture { return n.tel }

// MarkFault records an externally injected fault marker: start brackets the
// fault as KindFaultStart/KindFaultStop, and label names it. Faults that
// change the routing input also arm the convergence meter.
func (n *Network) MarkFault(start bool, label string) {
	k := telemetry.KindFaultStop
	if start {
		k = telemetry.KindFaultStart
	}
	n.emitFault(k, label, graph.None, graph.None)
}

// SyncTelemetry mirrors totals that live outside the registry — each
// link's transmitted data bits and lost packets (the port's DataBits and
// LostData), control traffic, the event bus's per-band drop counts and
// sample rate — into the metrics snapshot. It is idempotent (Set, not
// Add). ExportTelemetry calls it; a caller that exports the capture itself
// (the chaos DES runner's, through mdrsim) calls it after the run. A no-op
// when telemetry is off.
func (n *Network) SyncTelemetry() {
	if n.tel == nil {
		return
	}
	for _, l := range n.Graph.Links() {
		p := n.Ports[[2]graph.NodeID{l.From, l.To}]
		p.Probe.TxBits.Set(p.DataBits)
		p.Probe.LostPkts.Set(float64(p.LostData()))
	}
	reg := n.tel.Metrics
	reg.Counter("control.msgs").Set(float64(n.ControlMessages()))
	reg.Counter("control.bits").Set(n.ControlBits())
	n.tel.SyncDropCounters()
}

// ExportTelemetry writes the run's telemetry artifacts (JSONL event log and
// metrics snapshot) into dir under the given name prefix.
// A no-op returning nil when telemetry is off.
func (n *Network) ExportTelemetry(dir, prefix string) error {
	if n.tel == nil {
		return nil
	}
	n.SyncTelemetry()
	return n.tel.Export(dir, prefix)
}

// LiveViews returns the protocol state of every router that is up, keyed
// by ID — the view set the loop-freedom oracles audit. A crashed router
// forwards nothing; its abandoned successor sets are not part of the live
// routing graph.
func (n *Network) LiveViews() map[graph.NodeID]lfi.RouterView {
	views := make(map[graph.NodeID]lfi.RouterView, len(n.Nodes))
	for _, id := range n.Graph.Nodes() {
		if node := n.Nodes[id]; !node.Down() {
			views[id] = node.Protocol()
		}
	}
	return views
}

// CheckLoopFree audits the instantaneous successor graph of every
// destination (Theorem 3) — callable at any simulation time.
func (n *Network) CheckLoopFree() error {
	return lfi.CheckAllDestinations(n.Graph.NumNodes(), n.LiveViews())
}

// Report summarizes a run.
type Report struct {
	FlowNames []string
	// MeanDelayMs[x] is flow x's average end-to-end delay in milliseconds.
	MeanDelayMs []float64
	// P95DelayMs[x] is the 95th-percentile delay in milliseconds.
	P95DelayMs []float64
	// StdDevMs[x] is the standard deviation of flow x's packet delays in
	// milliseconds — the "jaggedness" the paper notes MP reduces.
	StdDevMs []float64
	// Delivered[x] counts delivered packets, Offered[x] generated ones.
	Delivered []int64
	Offered   []int64
	// Drops aggregates router-level drops over the whole run.
	DropsNoRoute, DropsHopLimit, DropsQueue int64
	// ControlMessages counts LSUs transmitted over the whole run.
	ControlMessages int64
	// MaxHops is the largest forwarding hop count any delivered packet
	// accumulated — bounded near the network diameter when routing is sane
	// (transient reroutes can add a few).
	MaxHops int
	// Reordered[x] is the fraction of flow x's delivered packets that
	// arrived after a later-sent packet — the out-of-order cost of
	// per-packet multipath (zero for single-path routing).
	Reordered []float64
}

// Report snapshots the current statistics.
func (n *Network) Report() *Report {
	maxHops := 0
	for _, h := range n.maxHops {
		if h > maxHops {
			maxHops = h
		}
	}
	r := &Report{ControlMessages: n.ControlMessages(), MaxHops: maxHops}
	for x, f := range n.Flows {
		s := &n.flows[x]
		r.FlowNames = append(r.FlowNames, f.Name)
		r.MeanDelayMs = append(r.MeanDelayMs, s.mean()*1e3)
		r.P95DelayMs = append(r.P95DelayMs, s.percentile(95)*1e3)
		r.StdDevMs = append(r.StdDevMs, s.stdDev()*1e3)
		r.Delivered = append(r.Delivered, s.count)
		r.Offered = append(r.Offered, n.SentPackets[x])
		r.Reordered = append(r.Reordered, s.reordered())
	}
	for _, node := range n.Nodes {
		r.DropsNoRoute += node.DroppedNoRoute
		r.DropsHopLimit += node.DroppedHopLimit
		r.DropsQueue += node.DroppedQueue
	}
	return r
}

// AvgMeanDelayMs returns the average over flows of the per-flow mean delays
// (the scalar the Tl/Ts sweeps compare), ignoring flows with no samples.
func (r *Report) AvgMeanDelayMs() float64 {
	sum, n := 0.0, 0
	for _, d := range r.MeanDelayMs {
		if !math.IsNaN(d) {
			sum += d
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// LossRate returns 1 - delivered/offered over all flows after warmup.
func (r *Report) LossRate() float64 {
	var del, off int64
	for x := range r.Delivered {
		del += r.Delivered[x]
		off += r.Offered[x]
	}
	if off == 0 {
		return 0
	}
	lr := 1 - float64(del)/float64(off)
	if lr < 0 {
		// Packets generated during warmup can be delivered after the stats
		// reset, making delivered marginally exceed offered.
		lr = 0
	}
	return lr
}

// String renders the paper-style per-flow table.
func (r *Report) String() string {
	s := fmt.Sprintf("%-20s %12s %12s %10s\n", "flow", "mean(ms)", "p95(ms)", "delivered")
	for x := range r.FlowNames {
		s += fmt.Sprintf("%-20s %12.3f %12.3f %10d\n",
			r.FlowNames[x], r.MeanDelayMs[x], r.P95DelayMs[x], r.Delivered[x])
	}
	return s
}
