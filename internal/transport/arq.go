package transport

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"minroute/internal/wire"
)

// ARQConfig tunes the selective-repeat retransmission layer. The zero
// value selects the defaults.
type ARQConfig struct {
	// RTO seeds the retransmission timeout in seconds until the first RTT
	// sample trains the estimator (default 0.02).
	RTO float64
	// MinRTO floors the estimator-driven timeout (default 0.002) so a
	// near-zero RTT sample cannot trigger a retransmission storm.
	MinRTO float64
	// MaxRTO caps each frame's exponential backoff (default 1.0).
	MaxRTO float64
	// Window bounds the send window — frames sent but not cumulatively
	// acknowledged (default 1024). A full window refuses Send, which is the
	// layer's flow control.
	Window int
	// MTU bounds one coalesced datagram in bytes (default 8 KiB, capped at
	// MaxDatagram). Small frames queued together ride one datagram — one
	// syscall — up to this size.
	MTU int
	// ReorderCap bounds the receiver's out-of-order buffer in frames
	// (default 4096); datagrams beyond it drop and are recovered by
	// retransmission.
	ReorderCap int
	// Stats observes retransmission behavior; nil disables observation at
	// the cost of one branch per event.
	Stats *ARQStats
}

// DefaultMTU is the default coalescing bound: large enough to amortize the
// per-datagram syscall across dozens of LSU-sized frames, small enough
// that a burst of datagrams fits comfortably in default socket buffers.
const DefaultMTU = 8 << 10

func (c ARQConfig) withDefaults() ARQConfig {
	if c.RTO <= 0 {
		c.RTO = 0.02
	}
	if c.MinRTO <= 0 {
		c.MinRTO = 0.002
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = 1.0
	}
	if c.Window <= 0 {
		c.Window = 1024
	}
	if c.MTU <= 0 {
		c.MTU = DefaultMTU
	}
	if c.MTU > MaxDatagram {
		c.MTU = MaxDatagram
	}
	if c.ReorderCap <= 0 {
		c.ReorderCap = 4096
	}
	return c
}

// ARQStats observes the retransmission machinery — the hook the live
// runtime uses to surface ARQ behavior as telemetry. Every field is
// optional; callbacks run inside the machine's steps, under whatever lock
// its driver holds, so they must be fast and must not call back into it.
type ARQStats struct {
	// Retransmit fires once per retransmitted frame; fast reports whether
	// duplicate SACKs (fast retransmit) or RTO expiry triggered it.
	Retransmit func(seq uint32, rto float64, fast bool)
	// RTOUpdate fires when an RTT sample moves the estimator.
	RTOUpdate func(srtt, rttvar, rto float64)
	// Window reports send-window occupancy after it changes.
	Window func(occupied, limit int)
}

// ErrWindowFull is ARQ.Send's answer while Window frames await
// acknowledgment; the frame was not taken.
var ErrWindowFull = errors.New("transport: ARQ send window full")

// sendSlot is one window entry: an encoded frame awaiting cumulative
// acknowledgment, with its own retransmission clock.
type sendSlot struct {
	seq      uint32
	buf      []byte // encoded frame bytes; storage reused across window wraps
	sentAt   float64
	deadline float64
	rto      float64
	pending  bool // queued for (re)transmission by the next Flush
	retx     bool // retransmitted at least once — Karn's rule bars RTT sampling
	sacked   bool // selectively acknowledged — no further retransmission
}

// ARQ rebuilds the reliable, in-order, exactly-once contract on top of an
// unreliable datagram channel — the live counterpart of the ARQ model
// internal/protonet emulates beneath the simulator ("received correctly
// and in the proper sequence" is what this layer restores, not what the
// raw channel provides).
//
// It is a state machine and nothing else: no lock, no goroutine, no clock
// and no channel. Its driver hands it frames (Send), received datagrams
// (Handle) and the time (Tick), and writes what Flush emits. ARQConn drives
// one over a Packet; internal/node drives one per peer under its node lock.
//
// The protocol is selective repeat. Sender: every data frame takes the
// next sequence number and a slot in a sliding window (Send refuses a full
// window); Flush coalesces queued frames into MTU-sized datagrams; each
// frame carries its own retransmit deadline from an SRTT/RTTVAR estimator
// (RFC 6298 shape, Karn's rule excluding retransmitted frames from
// sampling), doubling per expiry up to MaxRTO; three duplicate SACKs
// fast-retransmit the first unacknowledged frame without waiting for the
// timer. Receiver: in-order frames are delivered; out-of-order frames wait
// in a bounded reorder ring; every data-bearing datagram is answered with
// one SACK frame — cumulative ack plus a bitmap of out-of-order receptions,
// leading the next datagram — so the sender resends only what is actually
// missing. Duplicates (seq ≤ last delivered) are re-SACKed and discarded
// before the application ever sees them — a duplicate consumes channel
// attempts but never surfaces as a protocol event, exactly the property
// MPDA's ACK bookkeeping needs.
type ARQ struct {
	cfg ARQConfig

	// Sender state.
	nextSeq  uint32
	win      []sendSlot // ring: win[(winStart+i)%len] for i < winLen; grown up to Window
	winStart int
	winLen   int
	pendingN int // slots with pending=true
	srtt     float64
	rttvar   float64
	rto      float64
	hasSRTT  bool
	lastCum  uint32 // highest cumulative ack applied
	dupCum   int    // consecutive no-progress SACKs at lastCum
	fastDone bool   // fast retransmit already spent at lastCum

	// Receiver state.
	lastDelivered uint32
	// reorder parks out-of-order frames at seq&(len-1): every parked seq
	// lies within len of lastDelivered, so slots never collide. It grows on
	// demand, to at most ReorderCap rounded up to a power of two.
	reorder    []*wire.Frame
	parked     int
	ackPending bool
	ackBitmap  []byte        // Flush's scratch, canonical (trailing zeros trimmed)
	delivered  []*wire.Frame // Handle's result, reused
}

// NewARQMachine returns a machine with an empty window and nothing
// received.
func NewARQMachine(cfg ARQConfig) *ARQ {
	cfg = cfg.withDefaults()
	return &ARQ{cfg: cfg, nextSeq: 1, rto: cfg.RTO}
}

// seqLE is wraparound-safe serial comparison: a ≤ b on the sequence circle.
func seqLE(a, b uint32) bool { return int32(a-b) <= 0 }

// seqLT is strict wraparound-safe serial comparison.
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// Send assigns the next sequence number and encodes the frame into its
// window slot, queued for the next Flush. It returns ErrWindowFull, taking
// nothing, while the window is full. The frame is copied; the caller keeps
// ownership of f.
func (a *ARQ) Send(f *wire.Frame) error {
	if f.Type == wire.TypeSack {
		return fmt.Errorf("transport: %s frames are reserved for the ARQ layer", f.Type)
	}
	if n := f.EncodedBytes(); n > MaxDatagram {
		return fmt.Errorf("transport: frame of %d bytes exceeds max datagram %d", n, MaxDatagram)
	}
	if a.winLen == a.cfg.Window {
		return ErrWindowFull
	}
	if a.winLen == len(a.win) {
		a.growWindow()
	}
	slot := &a.win[(a.winStart+a.winLen)%len(a.win)]
	g := *f
	g.Seq = a.nextSeq
	buf, err := g.AppendEncode(slot.buf[:0])
	if err != nil {
		return err
	}
	a.nextSeq++
	*slot = sendSlot{seq: g.Seq, buf: buf, rto: a.rto, pending: true}
	a.winLen++
	a.pendingN++
	a.statWindow()
	return nil
}

// growWindow doubles the window ring (up to Window slots), unrolling it so
// the oldest slot sits first.
func (a *ARQ) growWindow() {
	n := min(max(2*len(a.win), 16), a.cfg.Window)
	w := make([]sendSlot, n)
	for i := 0; i < a.winLen; i++ {
		w[i] = a.win[(a.winStart+i)%len(a.win)]
	}
	a.win, a.winStart = w, 0
}

// Flush emits every datagram due — the pending SACK leading the first,
// then the queued frames, coalesced up to the MTU — and stamps each
// frame's retransmission deadline from now. The datagrams reuse the
// storage of bufs (up to its capacity); an empty result means nothing was
// due.
func (a *ARQ) Flush(now float64, bufs [][]byte) [][]byte {
	bufs = bufs[:cap(bufs)]
	k := 0
	for ; ; k++ {
		if k == len(bufs) {
			bufs = append(bufs, nil)
		}
		d := a.datagram(now, bufs[k][:0])
		if len(d) == 0 {
			return bufs[:k]
		}
		bufs[k] = d
	}
}

// datagram appends the next datagram due to dst.
func (a *ARQ) datagram(now float64, dst []byte) []byte {
	if a.ackPending {
		a.ackPending = false
		sf := wire.Frame{Type: wire.TypeSack, Seq: a.lastDelivered}
		if bm := a.sackBitmap(); len(bm) > 0 {
			sf.Payload = bm
		}
		if out, err := sf.AppendEncode(dst); err == nil {
			dst = out
		}
	}
	for i := 0; i < a.winLen && a.pendingN > 0; i++ {
		slot := &a.win[(a.winStart+i)%len(a.win)]
		if !slot.pending {
			continue
		}
		// The MTU bounds coalescing, not frame size: a frame that alone
		// exceeds it still ships as its own (possibly oversize) datagram.
		if len(dst) > 0 && len(dst)+len(slot.buf) > a.cfg.MTU {
			break
		}
		dst = append(dst, slot.buf...)
		slot.pending = false
		slot.sentAt = now
		slot.deadline = now + slot.rto
		a.pendingN--
	}
	return dst
}

// sackBitmap renders the parked frames past the cumulative ack as the
// SACK bitmap, walking the reorder ring in sequence order.
func (a *ARQ) sackBitmap() []byte {
	bm := a.ackBitmap[:0]
	maxBits := min(8*wire.MaxSackBytes, a.cfg.ReorderCap, len(a.reorder))
	for off, seen := 0, 0; off < maxBits && seen < a.parked; off++ {
		if a.reorder[(a.lastDelivered+1+uint32(off))&uint32(len(a.reorder)-1)] == nil {
			continue
		}
		seen++
		for len(bm) <= off/8 {
			bm = append(bm, 0)
		}
		bm[off/8] |= 1 << (uint(off) % 8)
	}
	a.ackBitmap = bm
	return bm
}

// Deadline returns the earliest retransmission deadline among frames in
// flight — sent and not yet acknowledged — or +Inf with none: when the
// driver must next call Tick.
func (a *ARQ) Deadline() float64 {
	d := math.Inf(1)
	for i := 0; i < a.winLen; i++ {
		s := &a.win[(a.winStart+i)%len(a.win)]
		if !s.pending && !s.sacked && s.deadline < d {
			d = s.deadline
		}
	}
	return d
}

// Tick queues every overdue frame for retransmission with doubled
// per-frame backoff — only what is actually missing is resent.
func (a *ARQ) Tick(now float64) {
	for i := 0; i < a.winLen; i++ {
		s := &a.win[(a.winStart+i)%len(a.win)]
		if s.pending || s.sacked || s.deadline > now+1e-12 {
			continue
		}
		s.rto = min(2*s.rto, a.cfg.MaxRTO)
		s.pending = true
		s.retx = true
		a.pendingN++
		if st := a.cfg.Stats; st != nil && st.Retransmit != nil {
			st.Retransmit(s.seq, s.rto, false)
		}
	}
}

// Handle applies one received datagram — possibly several coalesced
// frames — and returns the data frames it made deliverable, in order. The
// returned slice is reused by the next Handle; the frames are not (their
// payloads alias one private copy of dgram), so they may be kept. Bytes
// that do not decode end the datagram: retransmission recovers whatever
// they hid.
func (a *ARQ) Handle(now float64, dgram []byte) []*wire.Frame {
	a.delivered = a.delivered[:0]
	var data []wire.Frame
	var stable []byte
	for off := 0; off < len(dgram); {
		var f wire.Frame
		used, err := wire.DecodeSome(&f, dgram[off:])
		if err != nil {
			break
		}
		if f.Type == wire.TypeSack {
			a.handleSack(now, f.Seq, f.Payload)
		} else {
			// One stable copy per datagram: payloads alias it, and a frame
			// delivered or parked keeps it reachable.
			if stable == nil {
				stable = append([]byte(nil), dgram...)
				data = make([]wire.Frame, 0, 8)
			}
			if f.Payload != nil {
				f.Payload = stable[off+wire.HeaderBytes : off+used-wire.TrailerBytes]
			}
			data = append(data, f)
		}
		off += used
	}
	for i := range data {
		a.onData(&data[i])
	}
	if len(data) > 0 {
		// Every data-bearing datagram — including pure duplicates — is
		// answered, so a lost SACK is repaired by the retransmission it
		// provokes.
		a.ackPending = true
	}
	return a.delivered
}

// onData applies one received data frame to the receiver state.
func (a *ARQ) onData(f *wire.Frame) {
	switch {
	case seqLE(f.Seq, a.lastDelivered):
		// Duplicate: recognized by its sequence number and discarded; the
		// SACK sent back stops the retransmissions.
	case f.Seq == a.lastDelivered+1:
		a.delivered = append(a.delivered, f)
		a.lastDelivered++
		for a.parked > 0 {
			i := (a.lastDelivered + 1) & uint32(len(a.reorder)-1)
			next := a.reorder[i]
			if next == nil {
				break
			}
			a.reorder[i] = nil
			a.parked--
			a.delivered = append(a.delivered, next)
			a.lastDelivered++
		}
	default:
		// Future frame: park it if it is within the reorder horizon; either
		// way the SACK tells the sender where the gap starts and what
		// already arrived.
		dist := int(int32(f.Seq - (a.lastDelivered + 1)))
		if dist >= a.cfg.ReorderCap {
			return
		}
		if dist >= len(a.reorder) {
			a.growReorder(dist + 1)
		}
		if i := f.Seq & uint32(len(a.reorder)-1); a.reorder[i] == nil {
			a.reorder[i] = f
			a.parked++
		}
	}
}

// growReorder resizes the reorder ring to the power of two covering span
// sequence numbers past the cumulative ack, re-seating the parked frames.
func (a *ARQ) growReorder(span int) {
	n := max(len(a.reorder), 16)
	for n < span {
		n *= 2
	}
	ring := make([]*wire.Frame, n)
	for _, f := range a.reorder {
		if f != nil {
			ring[f.Seq&uint32(n-1)] = f
		}
	}
	a.reorder = ring
}

// handleSack applies one acknowledgment: pop the cumulatively covered
// window prefix, mark bitmap-covered frames as selectively acknowledged,
// sample RTT per Karn's rule, and count duplicates toward fast retransmit.
func (a *ARQ) handleSack(now float64, cum uint32, bitmap []byte) {
	progressed := false
	sample := -1.0
	for a.winLen > 0 {
		s := &a.win[a.winStart]
		if !seqLE(s.seq, cum) {
			break
		}
		// Sample only slots first acknowledged by THIS cumulative advance: a
		// slot already sacked was delivered (and sampled) when its bitmap bit
		// arrived — now-sentAt for it would fold the whole gap-recovery time
		// into the estimator and balloon the RTO.
		if !s.retx && !s.pending && !s.sacked && sample < 0 {
			sample = now - s.sentAt
		}
		if s.pending {
			s.pending = false
			a.pendingN--
		}
		a.winStart = (a.winStart + 1) % len(a.win)
		a.winLen--
		progressed = true
	}
	for i := range bitmap {
		if bitmap[i] == 0 {
			continue
		}
		for bit := 0; bit < 8; bit++ {
			if bitmap[i]&(1<<uint(bit)) == 0 {
				continue
			}
			s := a.slotFor(cum + 1 + uint32(i*8+bit))
			if s == nil || s.sacked {
				continue
			}
			s.sacked = true
			if s.pending {
				s.pending = false
				a.pendingN--
			}
			if !s.retx && sample < 0 {
				sample = now - s.sentAt
			}
			progressed = true
		}
	}
	// Fast retransmit counts SACKs whose cumulative ack is stuck — new
	// bitmap bits still count as duplicates (they prove later frames are
	// landing while the front of the window is not), exactly the TCP-SACK
	// rule. Only cumulative progress resets the count.
	if seqLT(a.lastCum, cum) {
		a.lastCum = cum
		a.dupCum = 0
		a.fastDone = false
	} else if cum == a.lastCum && a.winLen > 0 {
		a.dupCum++
		if a.dupCum >= 3 && !a.fastDone {
			a.fastRetransmit()
			a.fastDone = true
		}
	}
	if progressed {
		if sample >= 0 {
			a.updateRTO(sample)
		}
		a.statWindow()
	}
}

// fastRetransmit queues the first unacknowledged in-flight frame — three
// duplicate SACKs mean later frames arrived while it did not, so waiting
// out its RTO would only add latency.
func (a *ARQ) fastRetransmit() {
	if a.winLen == 0 {
		return
	}
	s := &a.win[a.winStart]
	if s.sacked || s.pending {
		return // already queued or provably delivered: nothing to hurry
	}
	s.pending = true
	s.retx = true
	a.pendingN++
	if st := a.cfg.Stats; st != nil && st.Retransmit != nil {
		st.Retransmit(s.seq, s.rto, true)
	}
}

// slotFor resolves a sequence number to its window slot, or nil when the
// sequence is outside the current window.
func (a *ARQ) slotFor(seq uint32) *sendSlot {
	if a.winLen == 0 {
		return nil
	}
	off := int(int32(seq - a.win[a.winStart].seq))
	if off < 0 || off >= a.winLen {
		return nil
	}
	return &a.win[(a.winStart+off)%len(a.win)]
}

// updateRTO folds one RTT sample into the SRTT/RTTVAR estimator (RFC 6298
// gains) and clamps the resulting RTO to [MinRTO, MaxRTO].
func (a *ARQ) updateRTO(sample float64) {
	sample = max(sample, 0)
	if !a.hasSRTT {
		a.srtt = sample
		a.rttvar = sample / 2
		a.hasSRTT = true
	} else {
		a.rttvar = 0.75*a.rttvar + 0.25*math.Abs(a.srtt-sample)
		a.srtt = 0.875*a.srtt + 0.125*sample
	}
	a.rto = min(max(a.srtt+4*a.rttvar, a.cfg.MinRTO), a.cfg.MaxRTO)
	if st := a.cfg.Stats; st != nil && st.RTOUpdate != nil {
		st.RTOUpdate(a.srtt, a.rttvar, a.rto)
	}
}

// statWindow reports send-window occupancy to the observer.
func (a *ARQ) statWindow() {
	if st := a.cfg.Stats; st != nil && st.Window != nil {
		st.Window(a.winLen, a.cfg.Window)
	}
}

// Outstanding reports the number of frames awaiting cumulative
// acknowledgment — zero means every Send so far has provably reached the
// peer.
func (a *ARQ) Outstanding() int { return a.winLen }

// RTO returns the current estimator-driven retransmission timeout.
func (a *ARQ) RTO() float64 { return a.rto }

// ARQConn drives one ARQ over a Packet as a Conn. It makes no protocol
// decision of its own: it holds the machine under one mutex, runs the
// lane's reader goroutine and one clock timer, and follows one rule —
// whoever steps the machine writes what it emitted, after unlocking. A
// goroutine that steps it while another is still writing leaves its
// datagrams to that writer, which flushes again before it lets go: frames
// sent during a slow write ride out together, coalesced.
type ARQConn struct {
	p     Packet
	clk   Clock
	recvQ *Queue

	mu      sync.Mutex
	space   *sync.Cond // the window has room, or closed
	m       *ARQ
	closed  bool
	writing bool     // some goroutine holds the write turn
	out     [][]byte // the write turn's datagram buffers
	timer   Timer
	timerAt float64 // when the armed timer fires; +Inf with none
	gen     uint64  // invalidates a timer that fired as it was replaced
}

// NewARQ layers the retransmission protocol over p using clk for timers
// and RTT measurement. It takes ownership of p.
func NewARQ(p Packet, cfg ARQConfig, clk Clock) *ARQConn {
	c := &ARQConn{p: p, clk: clk, recvQ: NewQueue(), m: NewARQMachine(cfg), timerAt: math.Inf(1)}
	c.space = sync.NewCond(&c.mu)
	go c.readLoop()
	return c
}

// Send queues the frame and, unless a write is already under way, writes
// it. It blocks while the send window is full. The frame is copied; the
// caller keeps ownership of f.
func (c *ARQConn) Send(f *wire.Frame) (err error) {
	c.step(func() {
		for !c.closed {
			if err = c.m.Send(f); err != ErrWindowFull {
				return
			}
			c.space.Wait()
		}
		err = ErrClosed
	})
	return err
}

// readLoop feeds received datagrams to the machine and delivered frames
// to Recv until the packet channel dies.
func (c *ARQConn) readLoop() {
	buf := make([]byte, MaxDatagram)
	for {
		n, err := c.p.ReadPacket(buf)
		if err != nil {
			c.shut()
			return
		}
		var fs []*wire.Frame
		c.step(func() {
			before := c.m.Outstanding()
			fs = c.m.Handle(c.clk.Now(), buf[:n])
			if c.m.Outstanding() < before {
				c.space.Broadcast()
			}
		})
		// fs stays valid until the next Handle, which only this loop calls.
		if len(fs) > 0 {
			c.recvQ.Push(fs...)
		}
	}
}

// onTimer retransmits what is overdue.
func (c *ARQConn) onTimer(gen uint64) {
	c.step(func() {
		if !c.closed && gen == c.gen {
			c.timerAt = math.Inf(1)
			c.m.Tick(c.clk.Now())
		}
	})
}

// step runs fn on the machine under the lock and then, unless another
// goroutine holds the write turn (it will flush this step's output too),
// takes the turn and writes what the machine emitted.
func (c *ARQConn) step(fn func()) {
	c.mu.Lock()
	fn()
	var out [][]byte
	if !c.writing && !c.closed {
		out = c.flushLocked()
		c.writing = len(out) > 0
	}
	c.armLocked()
	c.mu.Unlock()
	c.write(out)
}

// flushLocked drains the machine's datagrams into the turn's buffers.
func (c *ARQConn) flushLocked() [][]byte {
	c.out = c.m.Flush(c.clk.Now(), c.out)
	return c.out
}

// write is the write turn: it sends out, then flushes and sends whatever
// other goroutines queued meanwhile, and lets the turn go once nothing is.
func (c *ARQConn) write(out [][]byte) {
	for len(out) > 0 {
		for _, d := range out {
			// Best effort: a write error means the socket is dying, and the
			// read side owns teardown.
			_ = c.p.WritePacket(d)
		}
		c.mu.Lock()
		out = nil
		if !c.closed {
			out = c.flushLocked()
		}
		c.writing = len(out) > 0
		c.armLocked()
		c.mu.Unlock()
	}
}

// armLocked makes the timer fire by the machine's next deadline. A timer
// already due sooner stays: firing early only re-arms.
func (c *ARQConn) armLocked() {
	d := c.m.Deadline()
	if c.closed || math.IsInf(d, 1) || d >= c.timerAt {
		return
	}
	if c.timer != nil {
		c.timer.Stop()
	}
	c.gen++
	gen := c.gen
	c.timerAt = d
	c.timer = c.clk.AfterFunc(max(d-c.clk.Now(), 0), func() { c.onTimer(gen) })
}

// shut closes the connection once, reporting whether this call did: the
// timer stops, blocked Sends fail, and blocked Recvs drain and then fail.
func (c *ARQConn) shut() bool {
	c.mu.Lock()
	first := !c.closed
	c.closed = true
	if c.timer != nil {
		c.timer.Stop()
	}
	c.space.Broadcast()
	c.mu.Unlock()
	c.recvQ.Close()
	return first
}

// Recv blocks for the next in-order frame.
func (c *ARQConn) Recv() (*wire.Frame, error) { return c.recvQ.Pop() }

// Outstanding reports the number of frames awaiting cumulative
// acknowledgment — zero means every Send so far has provably reached the
// peer.
func (c *ARQConn) Outstanding() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Outstanding()
}

// RTO returns the current estimator-driven retransmission timeout.
func (c *ARQConn) RTO() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.RTO()
}

// Close tears the connection down and releases the lane. Nothing is
// awaited: reliability ends at Close.
func (c *ARQConn) Close() error {
	if !c.shut() {
		return nil
	}
	return c.p.Close()
}
