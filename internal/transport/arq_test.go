package transport

import (
	"math"
	"minroute/internal/leaktest"
	"sync"
	"testing"
	"time"

	"minroute/internal/graph"
	"minroute/internal/wire"
)

// helloMTU is exactly one encoded hello frame (header + 4-byte payload +
// trailer); configuring it as the MTU forces one frame per datagram, which
// lets tests target loss at individual frames.
const helloMTU = wire.HeaderBytes + 4 + wire.TrailerBytes

// mustRecv receives one frame or fails the test after a wall deadline.
func mustRecv(t *testing.T, c Conn) *wire.Frame {
	t.Helper()
	type res struct {
		f   *wire.Frame
		err error
	}
	ch := make(chan res, 1)
	go func() {
		f, err := c.Recv()
		ch <- res{f, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("Recv: %v", r.err)
		}
		return r.f
	case <-time.After(10 * time.Second):
		t.Fatalf("Recv: timed out")
		return nil
	}
}

// driveRecv receives one frame while repeatedly advancing the fake clock so
// retransmission timers can fire; the peer's reader runs on its own
// goroutine, so deadlines are stamped asynchronously and a single up-front
// Advance can race past them.
func driveRecv(t *testing.T, clk *VirtualClock, c Conn) *wire.Frame {
	t.Helper()
	type res struct {
		f   *wire.Frame
		err error
	}
	ch := make(chan res, 1)
	go func() {
		f, err := c.Recv()
		ch <- res{f, err}
	}()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case r := <-ch:
			if r.err != nil {
				t.Fatalf("Recv: %v", r.err)
			}
			return r.f
		case <-time.After(time.Millisecond):
			clk.Advance(0.05)
		case <-deadline:
			t.Fatalf("Recv: timed out")
			return nil
		}
	}
}

// helloID extracts the node id from a hello frame.
func helloID(t *testing.T, f *wire.Frame) int {
	t.Helper()
	if f.Type != wire.TypeHello {
		t.Fatalf("got frame type %v, want hello", f.Type)
	}
	id, err := wire.HelloNode(f)
	if err != nil {
		t.Fatalf("HelloNode: %v", err)
	}
	return int(id)
}

func TestARQInOrderDelivery(t *testing.T) {
	leaktest.Check(t)
	pa, pb := PacketPipe()
	clk := NewVirtualClock()
	a := NewARQ(pa, ARQConfig{}, clk)
	b := NewARQ(pb, ARQConfig{}, clk)
	defer a.Close()
	defer b.Close()

	const n = 64
	for i := 0; i < n; i++ {
		if err := a.Send(wire.NewHello(graph.NodeID(i))); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		if got := helloID(t, mustRecv(t, b)); got != i {
			t.Fatalf("frame %d: got id %d", i, got)
		}
	}
	// SACKs flow back asynchronously; the window must drain without any
	// timer help because the channel is loss-free.
	waitOutstandingZero(t, a)
}

func waitOutstandingZero(t *testing.T, c *ARQConn) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second) //lint:nowall-ok test watchdog deadline, not protocol time
	for c.Outstanding() != 0 {
		if time.Now().After(deadline) { //lint:nowall-ok test watchdog deadline, not protocol time
			t.Fatalf("outstanding window never drained: %d left", c.Outstanding())
		}
		time.Sleep(time.Millisecond)
	}
}

// dropFirstPacket drops the first n data writes (SACK-sized frames pass),
// forcing recovery through retransmission.
type dropFirstPacket struct {
	Packet
	mu   sync.Mutex
	drop int
}

func (d *dropFirstPacket) WritePacket(b []byte) error {
	d.mu.Lock()
	if d.drop > 0 && len(b) > wire.HeaderBytes+wire.TrailerBytes {
		d.drop--
		d.mu.Unlock()
		return nil
	}
	d.mu.Unlock()
	return d.Packet.WritePacket(b)
}

func TestARQRetransmitRecoversLoss(t *testing.T) {
	leaktest.Check(t)
	pa, pb := PacketPipe()
	clk := NewVirtualClock()
	// First transmission and first retransmission both drop; the second
	// retransmission (per-frame backoff doubling) gets through.
	lossy := &dropFirstPacket{Packet: pa, drop: 2}
	a := NewARQ(lossy, ARQConfig{RTO: 0.02}, clk)
	b := NewARQ(pb, ARQConfig{}, clk)
	defer a.Close()
	defer b.Close()

	if err := a.Send(wire.NewHello(7)); err != nil {
		t.Fatal(err)
	}
	if got := helloID(t, driveRecv(t, clk, b)); got != 7 {
		t.Fatalf("got id %d, want 7", got)
	}
	waitOutstandingZero(t, a)
}

// countingPacket counts writes passing through and can hold them until
// released, letting tests control exactly when a write completes.
type countingPacket struct {
	Packet
	mu   sync.Mutex
	n    int
	gate chan struct{} // nil: writes pass; else each write blocks on a recv
}

func (c *countingPacket) WritePacket(b []byte) error {
	c.mu.Lock()
	c.n++
	gate := c.gate
	c.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return c.Packet.WritePacket(b)
}

func (c *countingPacket) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// waitCount waits (wall clock) for the write count to reach want.
func (c *countingPacket) waitCount(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second) //lint:nowall-ok test watchdog deadline, not protocol time
	for c.count() < want {
		if time.Now().After(deadline) { //lint:nowall-ok test watchdog deadline, not protocol time
			t.Fatalf("write count stuck at %d, want %d", c.count(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestARQPerFrameBackoffDoubles pins the per-frame retransmission schedule:
// with no receiver, one frame retransmits at RTO, then 2·RTO, then capped
// at MaxRTO — per frame, not per window.
func TestARQPerFrameBackoffDoubles(t *testing.T) {
	leaktest.Check(t)
	pa, _ := PacketPipe()
	clk := NewVirtualClock()
	cp := &countingPacket{Packet: pa}
	a := NewARQ(cp, ARQConfig{RTO: 0.1, MaxRTO: 0.4}, clk)
	defer a.Close()

	if err := a.Send(wire.NewHello(1)); err != nil {
		t.Fatal(err)
	}
	cp.waitCount(t, 1) // initial transmission stamped at t=0
	clk.Advance(0.1)   // RTO fires
	cp.waitCount(t, 2) // retransmitted at t=0.1, next deadline t=0.3
	clk.Advance(0.1)   // t=0.2: mid-backoff, nothing fires
	time.Sleep(5 * time.Millisecond)
	if got := cp.count(); got != 2 {
		t.Fatalf("mid-backoff: %d writes, want 2", got)
	}
	clk.Advance(0.1) // t=0.3: doubled backoff expires
	cp.waitCount(t, 3)
	clk.Advance(0.4) // t=0.7: capped at MaxRTO=0.4
	cp.waitCount(t, 4)
}

// retxRecorder records retransmissions via the stats hook.
type retxRecorder struct {
	mu   sync.Mutex
	n    int
	fast int
	seqs map[uint32]bool
}

func (r *retxRecorder) stats() *ARQStats {
	return &ARQStats{Retransmit: func(seq uint32, rto float64, fast bool) {
		r.mu.Lock()
		r.n++
		if fast {
			r.fast++
		}
		if r.seqs == nil {
			r.seqs = make(map[uint32]bool)
		}
		r.seqs[seq] = true
		r.mu.Unlock()
	}}
}

func (r *retxRecorder) counts() (n, fast int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n, r.fast
}

// distinct returns the set of sequence numbers ever retransmitted.
func (r *retxRecorder) distinct() []uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]uint32, 0, len(r.seqs))
	//lint:maporder-ok order-insensitive set snapshot for a membership check
	for s := range r.seqs {
		out = append(out, s)
	}
	return out
}

// TestARQSelectiveRetransmit is the selective-repeat headline: lose one
// frame out of eight and only that frame is retransmitted — go-back-N
// would resend the whole suffix. The one-frame MTU makes each frame its
// own datagram so the dropper can target a single sequence number, and the
// duplicate SACKs from the frames behind the hole trigger fast retransmit.
// The RTO sits far beyond the drive horizon: driveRecv advances virtual
// time while it waits, and a default RTO lets a scheduler stall (race
// soak) expire timers for frames that were never lost — a legitimate
// spurious timeout the "only seq 1" assertion would misread as go-back-N.
func TestARQSelectiveRetransmit(t *testing.T) {
	leaktest.Check(t)
	pa, pb := PacketPipe()
	clk := NewVirtualClock()
	rec := &retxRecorder{}
	lossy := &dropFirstPacket{Packet: pa, drop: 1}
	a := NewARQ(lossy, ARQConfig{RTO: 1000, MTU: helloMTU, Stats: rec.stats()}, clk)
	b := NewARQ(pb, ARQConfig{}, clk)
	defer a.Close()
	defer b.Close()

	const n = 8
	// First datagram (seq 1) drops; 2..8 arrive out of order w.r.t. the
	// hole and accumulate in the reorder buffer, each provoking a
	// duplicate SACK at cum=0.
	for i := 0; i < n; i++ {
		if err := a.Send(wire.NewHello(graph.NodeID(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if got := helloID(t, driveRecv(t, clk, b)); got != i {
			t.Fatalf("frame %d: got id %d", i, got)
		}
	}
	waitOutstandingZero(t, a)
	for _, seq := range rec.distinct() {
		if seq != 1 {
			t.Fatalf("seq %d retransmitted though only seq 1 was lost — selective repeat must not resend the suffix", seq)
		}
	}
	if n, _ := rec.counts(); n == 0 {
		t.Fatalf("lost frame recovered without any recorded retransmission")
	}
}

// TestARQFastRetransmit verifies three duplicate SACKs retransmit the hole
// without any timer expiry: the clock never advances past the initial RTO.
func TestARQFastRetransmit(t *testing.T) {
	leaktest.Check(t)
	pa, pb := PacketPipe()
	clk := NewVirtualClock()
	rec := &retxRecorder{}
	lossy := &dropFirstPacket{Packet: pa, drop: 1}
	// RTO far beyond the test horizon: only fast retransmit can recover.
	a := NewARQ(lossy, ARQConfig{RTO: 1000, MTU: helloMTU, Stats: rec.stats()}, clk)
	b := NewARQ(pb, ARQConfig{}, clk)
	defer a.Close()
	defer b.Close()

	const n = 8
	for i := 0; i < n; i++ {
		if err := a.Send(wire.NewHello(graph.NodeID(i))); err != nil {
			t.Fatal(err)
		}
		// Pace the sends so the receiver SACKs each datagram individually —
		// back-to-back arrivals legitimately coalesce into one SACK, which
		// would starve the duplicate-SACK counter this test exercises.
		time.Sleep(2 * time.Millisecond)
	}
	for i := 0; i < n; i++ {
		if got := helloID(t, mustRecv(t, b)); got != i {
			t.Fatalf("frame %d: got id %d", i, got)
		}
	}
	waitOutstandingZero(t, a)
	total, fast := rec.counts()
	if total != 1 || fast != 1 {
		t.Fatalf("got %d retransmissions (%d fast), want exactly 1 fast", total, fast)
	}
}

// TestARQCoalescing verifies small frames queued while a write is under
// way ride one datagram: with the first write held at the gate, 63 more
// Sends queue behind it, and the goroutine holding the write turn sends
// them in a single syscall once the gate opens.
func TestARQCoalescing(t *testing.T) {
	leaktest.Check(t)
	pa, pb := PacketPipe()
	clk := NewVirtualClock()
	gate := make(chan struct{})
	cp := &countingPacket{Packet: pa, gate: gate}
	a := NewARQ(cp, ARQConfig{}, clk)
	b := NewARQ(pb, ARQConfig{}, clk)
	defer a.Close()
	defer b.Close()

	const n = 64
	// The first Send takes the write turn and writes its lone frame, so it
	// must run in its own goroutine: the gate holds that write.
	errc := make(chan error, 1)
	go func() { errc <- a.Send(wire.NewHello(0)) }()
	cp.waitCount(t, 1) // the turn's holder is now blocked inside WritePacket
	for i := 1; i < n; i++ {
		if err := a.Send(wire.NewHello(graph.NodeID(i))); err != nil {
			t.Fatal(err)
		}
	}
	close(gate) // release the gated write; further writes pass freely
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := helloID(t, mustRecv(t, b)); got != i {
			t.Fatalf("frame %d: got id %d", i, got)
		}
	}
	waitOutstandingZero(t, a)
	// Exactly two data datagrams: the gated single and the 63-frame
	// coalesced remainder — plus the SACKs a sends back for b's
	// (nonexistent) traffic, i.e. none.
	if got := cp.count(); got != 2 {
		t.Fatalf("%d datagrams for %d frames, want 2 (1 gated single + 1 coalesced batch)", got, n)
	}
}

// TestARQRTOEstimator pins the SRTT/RTTVAR arithmetic (RFC 6298 gains) and
// the [MinRTO, MaxRTO] clamp.
func TestARQRTOEstimator(t *testing.T) {
	leaktest.Check(t)
	c := NewARQMachine(ARQConfig{})
	c.updateRTO(0.1)
	if c.srtt != 0.1 || c.rttvar != 0.05 {
		t.Fatalf("first sample: srtt=%v rttvar=%v, want 0.1/0.05", c.srtt, c.rttvar)
	}
	if got, want := c.rto, 0.1+4*0.05; math.Abs(got-want) > 1e-12 {
		t.Fatalf("rto=%v, want %v", got, want)
	}
	c.updateRTO(0.2)
	wantVar := 0.75*0.05 + 0.25*0.1
	wantSRTT := 0.875*0.1 + 0.125*0.2
	if math.Abs(c.rttvar-wantVar) > 1e-12 || math.Abs(c.srtt-wantSRTT) > 1e-12 {
		t.Fatalf("second sample: srtt=%v rttvar=%v, want %v/%v", c.srtt, c.rttvar, wantSRTT, wantVar)
	}
	// A near-zero sample must clamp to MinRTO, not collapse to zero.
	c2 := NewARQMachine(ARQConfig{MinRTO: 0.004})
	c2.updateRTO(0)
	c2.updateRTO(0)
	if c2.rto != 0.004 {
		t.Fatalf("rto=%v, want MinRTO clamp 0.004", c2.rto)
	}
}

// TestARQWindowBlocks verifies Send exerts flow control: with no SACKs
// coming back, the Window+1'th Send blocks, and Close releases it with
// ErrClosed.
func TestARQWindowBlocks(t *testing.T) {
	leaktest.Check(t)
	pa, _ := PacketPipe()
	clk := NewVirtualClock()
	a := NewARQ(pa, ARQConfig{RTO: 1000, Window: 4}, clk)

	for i := 0; i < 4; i++ {
		if err := a.Send(wire.NewHello(graph.NodeID(i))); err != nil {
			t.Fatal(err)
		}
	}
	errCh := make(chan error, 1)
	go func() { errCh <- a.Send(wire.NewHello(99)) }()
	select {
	case err := <-errCh:
		t.Fatalf("Send beyond window returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	a.Close()
	select {
	case err := <-errCh:
		if err != ErrClosed {
			t.Fatalf("blocked Send after Close: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("blocked Send never released by Close")
	}
}

func TestARQSendTooLarge(t *testing.T) {
	leaktest.Check(t)
	pa, _ := PacketPipe()
	a := NewARQ(pa, ARQConfig{}, NewVirtualClock())
	defer a.Close()
	// Oversize relative to the coalescing MTU is fine (ships alone); only a
	// frame that cannot fit any datagram is rejected.
	big := &wire.Frame{Type: wire.TypeHeartbeat, Payload: make([]byte, MaxDatagram)}
	if err := a.Send(big); err == nil {
		t.Fatalf("Send beyond MaxDatagram succeeded, want error")
	}
}

func TestARQDedup(t *testing.T) {
	leaktest.Check(t)
	pa, pb := PacketPipe()
	clk := NewVirtualClock()
	// Duplicate every datagram on the wire; the receiver must still
	// deliver each frame exactly once. One-frame MTU so every frame is
	// individually duplicated.
	a := NewARQ(WithFaults(pa, Fault{Seed: 1, DupProb: 1}), ARQConfig{MTU: helloMTU}, clk)
	b := NewARQ(pb, ARQConfig{}, clk)
	defer a.Close()
	defer b.Close()

	const n = 32
	for i := 0; i < n; i++ {
		if err := a.Send(wire.NewHello(graph.NodeID(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if got := helloID(t, mustRecv(t, b)); got != i {
			t.Fatalf("frame %d: got id %d", i, got)
		}
	}
	waitOutstandingZero(t, a)
	// No further frames may surface: send a sentinel and confirm it is
	// the very next delivery.
	if err := a.Send(wire.NewHello(999)); err != nil {
		t.Fatal(err)
	}
	if got := helloID(t, mustRecv(t, b)); got != 999 {
		t.Fatalf("after dedup run: got id %d, want sentinel 999", got)
	}
}

func TestARQReorder(t *testing.T) {
	leaktest.Check(t)
	pa, pb := PacketPipe()
	clk := NewVirtualClock()
	// Swap every pair of datagrams; delivery order must be restored by
	// the reorder buffer without any retransmission. One-frame MTU so
	// datagram reordering is frame reordering.
	a := NewARQ(WithFaults(pa, Fault{Seed: 1, ReorderProb: 1}), ARQConfig{MTU: helloMTU}, clk)
	b := NewARQ(pb, ARQConfig{}, clk)
	defer a.Close()
	defer b.Close()

	const n = 16
	for i := 0; i < n; i++ {
		if err := a.Send(wire.NewHello(graph.NodeID(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if got := helloID(t, driveRecv(t, clk, b)); got != i {
			t.Fatalf("frame %d: got id %d", i, got)
		}
	}
}

// TestARQSurvivesHeavyFaults is the headline exactly-once check: 20% loss,
// 20% duplication, 20% reordering in both directions (data and SACKs), and
// every frame still arrives exactly once, in order.
func TestARQSurvivesHeavyFaults(t *testing.T) {
	leaktest.Check(t)
	const n = 400
	fault := Fault{LossProb: 0.2, DupProb: 0.2, ReorderProb: 0.2}
	pa, pb := PacketPipe()
	clk := NewVirtualClock()
	fault.Seed = 11
	a := NewARQ(WithFaults(pa, fault), ARQConfig{RTO: 0.02, MTU: helloMTU}, clk)
	fault.Seed = 22
	b := NewARQ(WithFaults(pb, fault), ARQConfig{RTO: 0.02, MTU: helloMTU}, clk)
	defer a.Close()
	defer b.Close()

	done := make(chan int, 1)
	go func() {
		for i := 0; i < n; i++ {
			f, err := b.Recv()
			if err != nil || f.Type != wire.TypeHello {
				done <- i
				return
			}
			id, err := wire.HelloNode(f)
			if err != nil || int(id) != i {
				done <- i
				return
			}
		}
		done <- n
	}()
	for i := 0; i < n; i++ {
		if err := a.Send(wire.NewHello(graph.NodeID(i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(30 * time.Second)
	delivered := false
	for {
		// Keep driving retransmission timers even after delivery completes:
		// frames whose SACKs were all lost drain only after one more timer
		// round provokes a fresh acknowledgment.
		select {
		case got := <-done:
			if got != n {
				t.Fatalf("exactly-once order broke at frame %d", got)
			}
			delivered = true
		case <-time.After(time.Millisecond):
			clk.Advance(0.05)
		case <-deadline:
			t.Fatalf("mesh never drained under faults (delivered=%v, outstanding=%d)", delivered, a.Outstanding())
		}
		if delivered && a.Outstanding() == 0 {
			return
		}
	}
}

func TestARQSendAckReserved(t *testing.T) {
	leaktest.Check(t)
	pa, _ := PacketPipe()
	a := NewARQ(pa, ARQConfig{}, NewVirtualClock())
	defer a.Close()
	if err := a.Send(&wire.Frame{Type: wire.Type(5), Seq: 3}); err == nil {
		t.Fatalf("Send of the reserved type 5 succeeded, want error")
	}
	if err := a.Send(wire.NewSack(3, nil)); err == nil {
		t.Fatalf("Send(TypeSack) succeeded, want error")
	}
}

func TestARQClose(t *testing.T) {
	leaktest.Check(t)
	pa, pb := PacketPipe()
	clk := NewVirtualClock()
	a := NewARQ(pa, ARQConfig{}, clk)
	b := NewARQ(pb, ARQConfig{}, clk)

	if err := a.Send(wire.NewHello(1)); err != nil {
		t.Fatal(err)
	}
	if got := helloID(t, mustRecv(t, b)); got != 1 {
		t.Fatalf("got id %d", got)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := a.Send(wire.NewHello(2)); err != ErrClosed {
		t.Fatalf("Send after close: %v, want ErrClosed", err)
	}
	if _, err := a.Recv(); err != ErrClosed {
		t.Fatalf("Recv after close: %v, want ErrClosed", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	b.Close()
}
