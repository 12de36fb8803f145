package dataplane

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"minroute/internal/graph"
	"minroute/internal/telemetry"
	"minroute/internal/transport"
	"minroute/internal/wire"
)

// DefaultTTL bounds a data packet's hop budget. MPDA keeps the routing
// graph loop-free at every instant, so any packet that burns 32 hops on a
// mesh of tens of nodes is evidence of a bug, not a long path.
const DefaultTTL = 32

// Config configures one node's Forwarder.
type Config struct {
	// Self is this node's ID; Nodes the mesh size (IDs are 0..Nodes-1).
	Self  graph.NodeID
	Nodes int
	// Conn is the node's data port. The Forwarder owns it: Close closes it.
	Conn transport.Datagram
	// Clock stamps and measures packet delay.
	Clock transport.Clock
	// TTL is the hop budget stamped on originated packets (DefaultTTL if 0).
	TTL uint8
	// Metrics receives the forwarding counters (optional).
	Metrics *telemetry.Registry
	// LatencyOf returns the emulated one-hop latency for relaying a
	// packet of sizeBits to neighbor next — per the paper's link model,
	// sizeBits/capacity + propagation delay. The forwarder accumulates it
	// arithmetically in the packet's Accum field instead of sleeping, so
	// the measured delay distribution is exact rather than hostage to
	// timer granularity. Nil means no emulated latency.
	LatencyOf func(next graph.NodeID, sizeBits uint32) float64
	// OnDeliver, if set, observes every locally delivered packet with its
	// end-to-end delay (seconds). Called from the receive loop; keep it fast.
	OnDeliver func(p *wire.DataPacket, delay float64)
}

// FlowStat aggregates the packets of one flow observed at its sink.
type FlowStat struct {
	FlowID   uint64
	Src      graph.NodeID
	Packets  int64
	Bits     int64
	DelaySum float64 // seconds
	MaxDelay float64
	LastSeen float64 // clock time of last delivery
}

// MeanDelay returns the flow's mean end-to-end delay in seconds.
func (s FlowStat) MeanDelay() float64 {
	if s.Packets == 0 {
		return 0
	}
	return s.DelaySum / float64(s.Packets)
}

// SplitStat reports one (destination, next-hop) pair's observed share of
// this node's forwarded traffic, next to the phi weight the table wants.
type SplitStat struct {
	Dst, Hop graph.NodeID
	Packets  int64
	Got      float64 // observed fraction of packets to Dst via Hop
	Want     float64 // phi weight in the current table
}

// Snapshot is a consistent-enough view of a Forwarder's counters for
// observability; taken without stopping the data path.
type Snapshot struct {
	Origin, Forwarded, Delivered   float64
	DropNoRoute, DropNoAddr        float64
	TTLExpired, Looped, RecvErrors float64
	Splits                         []SplitStat
	Flows                          []FlowStat
}

// peerAddr maps a neighbor to its data-port address and per-link tx
// counter; the slice (indexed by node ID) is copy-on-write so the
// forwarding path reads it with one atomic load.
type peerAddr struct {
	addr string
	tx   *telemetry.Counter
}

// Forwarder is one node's data plane: it originates, relays, and delivers
// data packets under the current forwarding table. The table and peer map
// are swapped atomically by the control plane; the packet path takes no
// locks.
type Forwarder struct {
	cfg   Config
	ttl   uint8
	table atomic.Pointer[Table]
	peers atomic.Pointer[[]peerAddr]

	// mu orders control-plane mutations (SetPeer, Publish) and guards the
	// flow map. Lock order: node.Node.mu may be held when calling in here;
	// the Forwarder never calls back out, so the order is acyclic.
	mu    sync.Mutex
	flows map[uint64]*FlowStat

	// splits counts forwarded packets per (dst, next hop), flat at
	// dst*Nodes+hop. Atomic adds: origin and relay paths race benignly.
	splits []int64

	origin, forwarded, delivered *telemetry.Counter
	dropNoRoute, dropNoAddr      *telemetry.Counter
	ttlExpired, looped, recvErrs *telemetry.Counter

	done chan struct{}
}

// New builds a Forwarder over conn and starts its receive loop. Close
// stops the loop and releases the socket.
func New(cfg Config) *Forwarder {
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry(0)
	}
	f := &Forwarder{
		cfg:         cfg,
		ttl:         cfg.TTL,
		flows:       make(map[uint64]*FlowStat),
		splits:      make([]int64, cfg.Nodes*cfg.Nodes),
		origin:      reg.Counter("data.origin"),
		forwarded:   reg.Counter("data.forwarded"),
		delivered:   reg.Counter("data.delivered"),
		dropNoRoute: reg.Counter("data.drop.noroute"),
		dropNoAddr:  reg.Counter("data.drop.noaddr"),
		ttlExpired:  reg.Counter("data.drop.ttl"),
		looped:      reg.Counter("data.drop.loop"),
		recvErrs:    reg.Counter("data.recv.errors"),
		done:        make(chan struct{}),
	}
	if f.ttl == 0 {
		f.ttl = DefaultTTL
	}
	empty := make([]peerAddr, cfg.Nodes)
	f.peers.Store(&empty)
	f.table.Store(Compile(nil, nil))
	go f.recvLoop()
	return f
}

// LocalAddr returns the data port's address.
func (f *Forwarder) LocalAddr() string { return f.cfg.Conn.LocalAddr() }

// SetPeer binds neighbor id to its data-port address; tx (optional)
// counts packets relayed to that neighbor.
func (f *Forwarder) SetPeer(id graph.NodeID, addr string, tx *telemetry.Counter) {
	f.mu.Lock()
	defer f.mu.Unlock()
	old := *f.peers.Load()
	next := append([]peerAddr(nil), old...)
	next[id] = peerAddr{addr: addr, tx: tx}
	f.peers.Store(&next)
}

// Publish compiles entries against the current table (minimal bucket
// movement) and swaps the result in atomically. Serialized under mu so
// concurrent control-plane events can't interleave compile+store.
func (f *Forwarder) Publish(entries []Entry) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.table.Store(Compile(entries, f.table.Load()))
}

// Table returns the current forwarding snapshot.
func (f *Forwarder) Table() *Table { return f.table.Load() }

// ErrNoRoute reports that the table holds no successor for the
// destination (the control plane hasn't converged on it, or it's down).
var ErrNoRoute = errors.New("dataplane: no route to destination")

// sendBufs holds Send's encode buffers: Send runs on any caller's
// goroutine, so it cannot own scratch the way the receive loop does.
var sendBufs = sync.Pool{New: func() any { return new([]byte) }}

// Send originates one data packet of sizeBits toward dst on flow flowID.
// A packet to self is delivered immediately (delay 0 plus nothing: no
// hops were taken).
func (f *Forwarder) Send(dst graph.NodeID, flowID uint64, sizeBits uint32) error {
	f.origin.Inc()
	p := wire.DataPacket{
		Src: f.cfg.Self, Dst: dst, TTL: f.ttl,
		FlowID: flowID, SentAt: f.cfg.Clock.Now(), SizeBits: sizeBits,
	}
	if dst == f.cfg.Self {
		// OnDeliver may keep its packet, so only this branch pays for a
		// heap copy; p itself stays on the stack.
		q := p
		f.deliver(&q)
		return nil
	}
	buf := sendBufs.Get().(*[]byte)
	err := f.relay(&p, buf)
	sendBufs.Put(buf)
	return err
}

// relay picks the next hop for p, charges the emulated hop latency, and
// fires the frame at the neighbor's data port, encoding it into *buf (which
// keeps any growth for the next packet). The port does not retain the
// bytes past WriteTo, so the buffer is free again when relay returns.
func (f *Forwarder) relay(p *wire.DataPacket, buf *[]byte) error {
	hop, ok := f.table.Load().Lookup(p.Dst, p.FlowID)
	if !ok {
		f.dropNoRoute.Inc()
		return ErrNoRoute
	}
	peers := *f.peers.Load()
	pa := peers[hop]
	if pa.addr == "" {
		f.dropNoAddr.Inc()
		return ErrNoRoute
	}
	if f.cfg.LatencyOf != nil {
		p.Accum += f.cfg.LatencyOf(hop, p.SizeBits)
	}
	out, err := wire.AppendData((*buf)[:0], p)
	if err != nil {
		return err
	}
	*buf = out
	atomic.AddInt64(&f.splits[int(p.Dst)*f.cfg.Nodes+int(hop)], 1)
	f.forwarded.Inc()
	if pa.tx != nil {
		pa.tx.Inc()
	}
	return f.cfg.Conn.WriteTo(out, pa.addr)
}

// recvLoop drains the data port until Close. The datagram buffer, the
// decoded frame and packet, and the relay's encode buffer are the loop's
// own and reused for every packet: the packet's body aliases the datagram
// buffer only until handle returns.
func (f *Forwarder) recvLoop() {
	defer close(f.done)
	buf := make([]byte, transport.MaxDatagram)
	var (
		fr  wire.Frame
		p   wire.DataPacket
		out []byte
	)
	for {
		n, err := f.cfg.Conn.ReadFrom(buf)
		if err != nil {
			return // socket closed
		}
		if err := wire.DecodeInto(&fr, buf[:n]); err != nil || fr.Type != wire.TypeData {
			f.recvErrs.Inc()
			continue
		}
		if err := wire.DecodeDataPacket(&p, fr.Payload); err != nil {
			f.recvErrs.Inc()
			continue
		}
		f.handle(&p, &out)
	}
}

// handle routes one received packet: deliver, or relay (encoding into
// *out) with TTL and loop checks. A packet that returns to its origin
// without reaching its destination has traversed a routing loop — MPDA's
// loop-freedom invariant says that never happens, so it's counted as an
// invariant violation and dropped rather than re-forwarded.
func (f *Forwarder) handle(p *wire.DataPacket, out *[]byte) {
	if p.Dst == f.cfg.Self {
		f.deliver(p)
		return
	}
	if p.Src == f.cfg.Self {
		f.looped.Inc()
		return
	}
	if p.TTL <= 1 {
		f.ttlExpired.Inc()
		return
	}
	p.TTL--
	p.Hops++
	_ = f.relay(p, out) // best effort: drops already counted
}

// deliver sinks p locally, folding it into its flow's running stats. The
// end-to-end delay is the arithmetically accumulated emulated link time
// plus the real transit time through the stack.
func (f *Forwarder) deliver(p *wire.DataPacket) {
	now := f.cfg.Clock.Now()
	delay := p.Accum + (now - p.SentAt)
	f.delivered.Inc()
	f.mu.Lock()
	s := f.flows[p.FlowID]
	if s == nil {
		s = &FlowStat{FlowID: p.FlowID, Src: p.Src}
		f.flows[p.FlowID] = s
	}
	s.Packets++
	s.Bits += int64(p.SizeBits)
	s.DelaySum += delay
	if delay > s.MaxDelay {
		s.MaxDelay = delay
	}
	s.LastSeen = now
	f.mu.Unlock()
	if f.cfg.OnDeliver != nil {
		f.cfg.OnDeliver(p, delay)
	}
}

// Flows returns a copy of the per-flow sink stats, sorted by flow ID.
func (f *Forwarder) Flows() []FlowStat {
	f.mu.Lock()
	out := make([]FlowStat, 0, len(f.flows))
	//lint:maporder-ok values are collected then sorted by FlowID below
	for _, s := range f.flows {
		out = append(out, *s)
	}
	f.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].FlowID < out[b].FlowID })
	return out
}

// Snapshot captures the forwarder's counters, split ratios, and flows.
func (f *Forwarder) Snapshot() Snapshot {
	snap := Snapshot{
		Origin:      f.origin.Value(),
		Forwarded:   f.forwarded.Value(),
		Delivered:   f.delivered.Value(),
		DropNoRoute: f.dropNoRoute.Value(),
		DropNoAddr:  f.dropNoAddr.Value(),
		TTLExpired:  f.ttlExpired.Value(),
		Looped:      f.looped.Value(),
		RecvErrors:  f.recvErrs.Value(),
		Flows:       f.Flows(),
	}
	t := f.table.Load()
	n := f.cfg.Nodes
	for _, dst := range t.Dests() {
		hops, weights, ok := t.Route(dst)
		if !ok {
			continue
		}
		var total int64
		for _, h := range hops {
			total += atomic.LoadInt64(&f.splits[int(dst)*n+int(h)])
		}
		for i, h := range hops {
			pk := atomic.LoadInt64(&f.splits[int(dst)*n+int(h)])
			got := 0.0
			if total > 0 {
				got = float64(pk) / float64(total)
			}
			snap.Splits = append(snap.Splits, SplitStat{
				Dst: dst, Hop: h, Packets: pk, Got: got, Want: weights[i],
			})
		}
	}
	return snap
}

// Close stops the receive loop (by closing the data port) and waits for
// it to exit.
func (f *Forwarder) Close() error {
	err := f.cfg.Conn.Close()
	<-f.done
	return err
}
