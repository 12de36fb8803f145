package transport

import (
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
	// acknowledged (default 1024). Send blocks while the window is full,
	// which is the layer's flow control.
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
// optional; callbacks run with the connection's lock held, so they must be
// fast and must not call back into the connection.
type ARQStats struct {
	// Retransmit fires once per retransmitted frame; fast reports whether
	// duplicate SACKs (fast retransmit) or RTO expiry triggered it.
	Retransmit func(seq uint32, rto float64, fast bool)
	// RTOUpdate fires when an RTT sample moves the estimator.
	RTOUpdate func(srtt, rttvar, rto float64)
	// Window reports send-window occupancy after it changes.
	Window func(occupied, limit int)
}

// sendSlot is one window entry: an encoded frame awaiting cumulative
// acknowledgment, with its own retransmission clock.
type sendSlot struct {
	seq      uint32
	buf      []byte // encoded frame bytes; storage reused across window wraps
	sentAt   float64
	deadline float64
	rto      float64
	pending  bool // queued for (re)transmission by the write loop
	retx     bool // retransmitted at least once — Karn's rule bars RTT sampling
	sacked   bool // selectively acknowledged — no further retransmission
}

// ARQConn rebuilds the reliable, in-order, exactly-once contract on top of
// an unreliable datagram channel — the live counterpart of the ARQ model
// internal/protonet emulates beneath the simulator ("received correctly
// and in the proper sequence" is what this layer restores, not what the
// raw channel provides).
//
// The protocol is selective repeat. Sender: every data frame takes the
// next sequence number and a slot in a sliding window (Send blocks when
// the window is full); a write loop coalesces queued frames into MTU-sized
// datagrams — one syscall drains the whole queue; each frame carries its
// own retransmit deadline from an SRTT/RTTVAR estimator (RFC 6298 shape,
// Karn's rule excluding retransmitted frames from sampling), doubling per
// expiry up to MaxRTO; three duplicate SACKs fast-retransmit the first
// unacknowledged frame without waiting for the timer. Receiver: in-order
// frames are delivered; out-of-order frames wait in a bounded reorder
// buffer; every data-bearing datagram is answered with one SACK frame —
// cumulative ack plus a bitmap of out-of-order receptions — so the sender
// resends only what is actually missing. Duplicates (seq ≤ last delivered)
// are re-SACKed and discarded before the application ever sees them — a
// duplicate consumes channel attempts but never surfaces as a protocol
// event, exactly the property MPDA's ACK bookkeeping needs.
type ARQConn struct {
	p     Packet
	clk   Clock
	cfg   ARQConfig
	recvQ *Queue

	mu        sync.Mutex
	sendSpace *sync.Cond // window occupancy dropped, or closed
	work      *sync.Cond // the write loop has frames or an ack to flush
	closed    bool

	// Sender state (under mu).
	nextSeq  uint32
	win      []sendSlot // ring: win[(winStart+i)%len] for i < winLen
	winStart int
	winLen   int
	pendingN int // slots with pending=true
	srtt     float64
	rttvar   float64
	rto      float64
	hasSRTT  bool
	timer    Timer
	timerGen uint64
	lastCum  uint32 // highest cumulative ack applied
	dupCum   int    // consecutive no-progress SACKs at lastCum
	fastDone bool   // fast retransmit already spent at lastCum

	// Outbound-ack state (under mu; produced by the read loop, consumed by
	// the write loop).
	ackPending bool
	ackCum     uint32
	ackBitmap  []byte // reused scratch, canonical (trailing zeros trimmed)

	// Receiver state, owned exclusively by the readLoop goroutine.
	lastDelivered uint32
	reorder       map[uint32]*wire.Frame
	deliverBuf    []*wire.Frame // per-datagram delivery batch, reused
	ackDgram      []byte        // readLoop-owned scratch for inline SACK writes
}

// NewARQ layers the retransmission protocol over p using clk for timers
// and RTT measurement. It takes ownership of p.
func NewARQ(p Packet, cfg ARQConfig, clk Clock) *ARQConn {
	cfg = cfg.withDefaults()
	c := &ARQConn{
		p:       p,
		clk:     clk,
		cfg:     cfg,
		recvQ:   NewQueue(),
		nextSeq: 1,
		win:     make([]sendSlot, cfg.Window),
		rto:     cfg.RTO,
		reorder: make(map[uint32]*wire.Frame),
	}
	c.sendSpace = sync.NewCond(&c.mu)
	c.work = sync.NewCond(&c.mu)
	go c.readLoop()
	go c.writeLoop()
	return c
}

// seqLE is wraparound-safe serial comparison: a ≤ b on the sequence circle.
func seqLE(a, b uint32) bool { return int32(a-b) <= 0 }

// seqLT is strict wraparound-safe serial comparison.
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// Send assigns the next sequence number, encodes the frame into its window
// slot, and hands it to the write loop for (coalesced) transmission. It
// blocks while the send window is full. The frame is copied; the caller
// keeps ownership of f.
func (c *ARQConn) Send(f *wire.Frame) error {
	if f.Type == wire.TypeAck || f.Type == wire.TypeSack {
		return fmt.Errorf("transport: %s frames are reserved for the ARQ layer", f.Type)
	}
	if n := f.EncodedBytes(); n > MaxDatagram {
		return fmt.Errorf("transport: frame of %d bytes exceeds max datagram %d", n, MaxDatagram)
	}
	c.mu.Lock()
	for c.winLen == len(c.win) && !c.closed {
		c.sendSpace.Wait()
	}
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	slot := &c.win[(c.winStart+c.winLen)%len(c.win)]
	g := *f
	g.Seq = c.nextSeq
	buf, err := g.AppendEncode(slot.buf[:0])
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.nextSeq++
	slot.seq = g.Seq
	slot.buf = buf
	slot.sentAt = 0
	slot.deadline = 0
	slot.rto = c.rto
	slot.pending = true
	slot.retx = false
	slot.sacked = false
	c.winLen++
	c.pendingN++
	c.statWindow()
	// Fast path: an empty window means nothing is in flight to coalesce
	// with, so write the lone frame from the caller and skip the write-loop
	// handoff — one scheduler hop fewer per datagram, which is what sparse
	// traffic (heartbeats, lone LSUs) is made of. Pipelined senders keep
	// the window occupied and take the queued path, so bulk traffic still
	// batches. The slot buffer is stable until the window advances past it,
	// which requires the peer to have acknowledged this very frame, so
	// writing it outside the lock is safe.
	if c.winLen == 1 && c.pendingN == 1 && !c.ackPending {
		out := c.claimInlineLocked(slot)
		c.mu.Unlock()
		_ = c.p.WritePacket(out)
		return nil
	}
	c.work.Signal()
	c.mu.Unlock()
	return nil
}

// claimInlineLocked stamps a lone pending slot for an inline write by the
// caller, bypassing the write loop. The returned buffer is the slot's
// encoding, stable until the window advances past the slot — which
// requires the peer to have received this very frame.
func (c *ARQConn) claimInlineLocked(slot *sendSlot) []byte {
	slot.pending = false
	c.pendingN--
	now := c.clk.Now()
	slot.sentAt = now
	slot.deadline = now + slot.rto
	c.armTimerLocked(now)
	return slot.buf
}

// writeLoop drains queued frames onto the wire, coalescing as many as fit
// into one MTU-sized datagram per syscall, with any pending SACK leading
// the datagram so acknowledgments piggyback on data.
func (c *ARQConn) writeLoop() {
	dgram := make([]byte, 0, c.cfg.MTU)
	for {
		c.mu.Lock()
		for !c.closed && !c.ackPending && c.pendingN == 0 {
			c.work.Wait()
		}
		if c.closed {
			c.mu.Unlock()
			return
		}
		dgram = c.fillDatagramLocked(dgram[:0])
		c.mu.Unlock()
		if len(dgram) > 0 {
			// Best effort: a write error means the socket is dying, and the
			// read side owns teardown.
			_ = c.p.WritePacket(dgram)
		}
	}
}

// fillDatagramLocked builds one outbound datagram: the pending SACK (if
// any) followed by as many pending window slots as fit under the MTU. It
// stamps transmission times and re-arms the retransmission timer.
func (c *ARQConn) fillDatagramLocked(dgram []byte) []byte {
	if c.ackPending {
		c.ackPending = false
		sf := wire.Frame{Type: wire.TypeSack, Seq: c.ackCum}
		if len(c.ackBitmap) > 0 {
			sf.Payload = c.ackBitmap
		}
		out, err := sf.AppendEncode(dgram)
		if err == nil {
			dgram = out
		}
	}
	if c.pendingN == 0 {
		return dgram
	}
	now := c.clk.Now()
	sent := false
	for i := 0; i < c.winLen && c.pendingN > 0; i++ {
		slot := &c.win[(c.winStart+i)%len(c.win)]
		if !slot.pending {
			continue
		}
		// The MTU bounds coalescing, not frame size: a frame that alone
		// exceeds it still ships as its own (possibly oversize) datagram.
		if len(dgram) > 0 && len(dgram)+len(slot.buf) > c.cfg.MTU {
			break
		}
		dgram = append(dgram, slot.buf...)
		slot.pending = false
		slot.sentAt = now
		slot.deadline = now + slot.rto
		c.pendingN--
		sent = true
	}
	if c.pendingN > 0 {
		// More than one datagram's worth is queued: keep the loop running.
		c.work.Signal()
	}
	if sent {
		c.armTimerLocked(now)
	}
	return dgram
}

// armTimerLocked schedules the retransmission timer for the earliest
// deadline among in-flight frames; the generation counter invalidates
// stale timers.
func (c *ARQConn) armTimerLocked(now float64) {
	earliest := math.Inf(1)
	for i := 0; i < c.winLen; i++ {
		s := &c.win[(c.winStart+i)%len(c.win)]
		if s.pending || s.sacked {
			continue
		}
		if s.deadline < earliest {
			earliest = s.deadline
		}
	}
	c.timerGen++
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	if math.IsInf(earliest, 1) {
		return
	}
	d := earliest - now
	if d < 0 {
		d = 0
	}
	gen := c.timerGen
	c.timer = c.clk.AfterFunc(d, func() { c.onTimer(gen) })
}

// onTimer queues every overdue frame for retransmission with doubled
// per-frame backoff — only what is actually missing is resent.
func (c *ARQConn) onTimer(gen uint64) {
	c.mu.Lock()
	if c.closed || gen != c.timerGen {
		c.mu.Unlock()
		return
	}
	now := c.clk.Now()
	queued := false
	var due *sendSlot
	for i := 0; i < c.winLen; i++ {
		s := &c.win[(c.winStart+i)%len(c.win)]
		if s.pending || s.sacked || s.deadline > now+1e-12 {
			continue
		}
		s.rto *= 2
		if s.rto > c.cfg.MaxRTO {
			s.rto = c.cfg.MaxRTO
		}
		s.pending = true
		s.retx = true
		c.pendingN++
		queued = true
		due = s
		if st := c.cfg.Stats; st != nil && st.Retransmit != nil {
			st.Retransmit(s.seq, s.rto, false)
		}
	}
	if queued && c.pendingN == 1 && !c.ackPending {
		// A lone overdue frame retransmits inline from the timer goroutine —
		// the common loss-recovery case skips the write-loop handoff just
		// like Send's fast path does.
		out := c.claimInlineLocked(due)
		c.mu.Unlock()
		_ = c.p.WritePacket(out)
		return
	}
	if queued {
		c.work.Signal()
	}
	c.armTimerLocked(now)
	c.mu.Unlock()
}

// handleSack applies one acknowledgment: pop the cumulatively covered
// window prefix, mark bitmap-covered frames as selectively acknowledged,
// sample RTT per Karn's rule, and count duplicates toward fast retransmit.
func (c *ARQConn) handleSack(cum uint32, bitmap []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	now := c.clk.Now()
	progressed := false
	sample := -1.0
	for c.winLen > 0 {
		s := &c.win[c.winStart]
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
			c.pendingN--
		}
		c.winStart = (c.winStart + 1) % len(c.win)
		c.winLen--
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
			s := c.slotForLocked(cum + 1 + uint32(i*8+bit))
			if s == nil || s.sacked {
				continue
			}
			s.sacked = true
			if s.pending {
				s.pending = false
				c.pendingN--
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
	if seqLT(c.lastCum, cum) {
		c.lastCum = cum
		c.dupCum = 0
		c.fastDone = false
	} else if cum == c.lastCum && c.winLen > 0 {
		c.dupCum++
		if c.dupCum >= 3 && !c.fastDone {
			c.fastRetransmitLocked()
			c.fastDone = true
		}
	}
	if progressed {
		if sample >= 0 {
			c.updateRTOLocked(sample)
		}
		c.statWindow()
		c.sendSpace.Broadcast()
		c.armTimerLocked(now)
	}
}

// fastRetransmitLocked queues the first unacknowledged in-flight frame —
// three duplicate SACKs mean later frames arrived while it did not, so
// waiting out its RTO would only add latency.
func (c *ARQConn) fastRetransmitLocked() {
	for i := 0; i < c.winLen; i++ {
		s := &c.win[(c.winStart+i)%len(c.win)]
		if s.sacked || s.pending {
			return // already queued or provably delivered: nothing to hurry
		}
		s.pending = true
		s.retx = true
		c.pendingN++
		if st := c.cfg.Stats; st != nil && st.Retransmit != nil {
			st.Retransmit(s.seq, s.rto, true)
		}
		c.work.Signal()
		return
	}
}

// slotForLocked resolves a sequence number to its window slot, or nil when
// the sequence is outside the current window.
func (c *ARQConn) slotForLocked(seq uint32) *sendSlot {
	if c.winLen == 0 {
		return nil
	}
	off := int(int32(seq - c.win[c.winStart].seq))
	if off < 0 || off >= c.winLen {
		return nil
	}
	return &c.win[(c.winStart+off)%len(c.win)]
}

// updateRTOLocked folds one RTT sample into the SRTT/RTTVAR estimator
// (RFC 6298 gains) and clamps the resulting RTO to [MinRTO, MaxRTO].
func (c *ARQConn) updateRTOLocked(sample float64) {
	if sample < 0 {
		sample = 0
	}
	if !c.hasSRTT {
		c.srtt = sample
		c.rttvar = sample / 2
		c.hasSRTT = true
	} else {
		d := c.srtt - sample
		if d < 0 {
			d = -d
		}
		c.rttvar = 0.75*c.rttvar + 0.25*d
		c.srtt = 0.875*c.srtt + 0.125*sample
	}
	rto := c.srtt + 4*c.rttvar
	if rto < c.cfg.MinRTO {
		rto = c.cfg.MinRTO
	}
	if rto > c.cfg.MaxRTO {
		rto = c.cfg.MaxRTO
	}
	c.rto = rto
	if st := c.cfg.Stats; st != nil && st.RTOUpdate != nil {
		st.RTOUpdate(c.srtt, c.rttvar, c.rto)
	}
}

// statWindow reports send-window occupancy to the observer (under mu).
func (c *ARQConn) statWindow() {
	if st := c.cfg.Stats; st != nil && st.Window != nil {
		st.Window(c.winLen, len(c.win))
	}
}

// readLoop decodes datagrams — each possibly carrying several coalesced
// frames — and runs the receiver state machine. Delivered frames alias a
// per-datagram copy, so the whole batch costs one buffer allocation
// instead of one per frame.
func (c *ARQConn) readLoop() {
	buf := make([]byte, MaxDatagram)
	for {
		n, err := c.p.ReadPacket(buf)
		if err != nil {
			c.teardown()
			return
		}
		// One stable copy per datagram: decoded payloads alias it, and any
		// frame that outlives this iteration (delivered or parked in the
		// reorder buffer) keeps it reachable.
		data := append(make([]byte, 0, n), buf[:n]...)
		frames := make([]wire.Frame, 0, 8)
		for len(data) > 0 {
			var f wire.Frame
			used, err := wire.DecodeSome(&f, data)
			if err != nil {
				break // corrupt tail: drop; retransmission recovers
			}
			data = data[used:]
			switch f.Type {
			case wire.TypeAck:
				c.handleSack(f.Seq, nil)
			case wire.TypeSack:
				c.handleSack(f.Seq, f.Payload)
			default:
				frames = append(frames, f)
			}
		}
		if len(frames) == 0 {
			continue
		}
		c.deliverBuf = c.deliverBuf[:0]
		for i := range frames {
			c.onData(&frames[i])
		}
		if len(c.deliverBuf) > 0 {
			c.recvQ.PushAll(c.deliverBuf)
		}
		// Every data-bearing datagram — including pure duplicates — is
		// answered, so a lost SACK is repaired by the retransmission it
		// provokes.
		c.scheduleAck()
		c.flushAck()
	}
}

// flushAck writes the pending SACK inline from the readLoop when no data
// frames are queued — skipping the write-loop handoff keeps the ack round
// trip at two scheduler hops, which is what lets sparse traffic (heartbeats)
// drain the peer's window promptly. When data is pending, the write loop is
// woken instead so the SACK piggybacks on the next coalesced datagram.
func (c *ARQConn) flushAck() {
	c.mu.Lock()
	if c.closed || !c.ackPending {
		c.mu.Unlock()
		return
	}
	if c.pendingN > 0 {
		c.work.Signal()
		c.mu.Unlock()
		return
	}
	c.ackPending = false
	sf := wire.Frame{Type: wire.TypeSack, Seq: c.ackCum}
	if len(c.ackBitmap) > 0 {
		sf.Payload = c.ackBitmap
	}
	out, err := sf.AppendEncode(c.ackDgram[:0])
	if err != nil {
		c.mu.Unlock()
		return
	}
	c.ackDgram = out
	c.mu.Unlock()
	_ = c.p.WritePacket(out)
}

// onData applies one received data frame to the receiver state. Frames
// passed in must have stable storage (they are retained by pointer).
func (c *ARQConn) onData(f *wire.Frame) {
	switch {
	case seqLE(f.Seq, c.lastDelivered):
		// Duplicate: the ARQ layer recognizes the repeated sequence number
		// and discards it; the application never sees the copy. The SACK we
		// send back stops the retransmissions.
	case f.Seq == c.lastDelivered+1:
		c.deliverBuf = append(c.deliverBuf, f)
		c.lastDelivered++
		for {
			next, ok := c.reorder[c.lastDelivered+1]
			if !ok {
				break
			}
			delete(c.reorder, c.lastDelivered+1)
			c.deliverBuf = append(c.deliverBuf, next)
			c.lastDelivered++
		}
	default:
		// Future frame: park it if it is within the reorder horizon and the
		// buffer has room; either way the SACK tells the sender where the
		// gap starts and what already arrived.
		dist := int(int32(f.Seq - (c.lastDelivered + 1)))
		if dist < c.cfg.ReorderCap && len(c.reorder) < c.cfg.ReorderCap {
			if _, dup := c.reorder[f.Seq]; !dup {
				c.reorder[f.Seq] = f
			}
		}
	}
}

// scheduleAck snapshots the receiver state into the outbound-ack scratch —
// cumulative ack plus the out-of-order bitmap. The readLoop follows up with
// flushAck, which either writes it inline or wakes the write loop to
// piggyback it; coalescing is free because only the latest snapshot is ever
// sent.
func (c *ARQConn) scheduleAck() {
	c.mu.Lock()
	c.ackPending = true
	c.ackCum = c.lastDelivered
	bm := c.ackBitmap[:0]
	maxBits := 8 * wire.MaxSackBytes
	if c.cfg.ReorderCap < maxBits {
		maxBits = c.cfg.ReorderCap
	}
	//lint:maporder-ok per-SACK path, so no sort; an OR into the bitmap cannot show visit order
	for seq := range c.reorder {
		off := int(int32(seq - (c.ackCum + 1)))
		if off < 0 || off >= maxBits {
			continue
		}
		for len(bm) <= off/8 {
			bm = append(bm, 0)
		}
		bm[off/8] |= 1 << (uint(off) % 8)
	}
	for len(bm) > 0 && bm[len(bm)-1] == 0 {
		bm = bm[:len(bm)-1]
	}
	c.ackBitmap = bm
	c.mu.Unlock()
}

// teardown closes the receive side after the packet channel dies.
func (c *ARQConn) teardown() {
	c.mu.Lock()
	c.closed = true
	if c.timer != nil {
		c.timer.Stop()
	}
	c.timerGen++
	c.sendSpace.Broadcast()
	c.work.Broadcast()
	c.mu.Unlock()
	c.recvQ.Close()
}

// Recv blocks for the next in-order frame.
func (c *ARQConn) Recv() (*wire.Frame, error) { return c.recvQ.Pop() }

// Outstanding reports the number of frames awaiting cumulative
// acknowledgment — zero means every Send so far has provably reached the
// peer.
func (c *ARQConn) Outstanding() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.winLen
}

// RTO returns the current estimator-driven retransmission timeout.
func (c *ARQConn) RTO() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rto
}

// Close tears the connection down; blocked Recvs drain and then fail.
// Frames queued but never yet transmitted are flushed once, best effort —
// the node runtime's BYE rides in that flush — but nothing is awaited:
// reliability ends at Close.
func (c *ARQConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	if c.timer != nil {
		c.timer.Stop()
	}
	c.timerGen++
	var flush [][]byte
	var dgram []byte
	for i := 0; i < c.winLen; i++ {
		slot := &c.win[(c.winStart+i)%len(c.win)]
		if !slot.pending || slot.retx {
			continue
		}
		if len(dgram) > 0 && len(dgram)+len(slot.buf) > c.cfg.MTU {
			flush = append(flush, dgram)
			dgram = nil
		}
		dgram = append(dgram, slot.buf...)
		slot.pending = false
	}
	if len(dgram) > 0 {
		flush = append(flush, dgram)
	}
	c.pendingN = 0
	c.sendSpace.Broadcast()
	c.work.Broadcast()
	c.mu.Unlock()
	for _, d := range flush {
		_ = c.p.WritePacket(d)
	}
	err := c.p.Close()
	c.recvQ.Close()
	return err
}
