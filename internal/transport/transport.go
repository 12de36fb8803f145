// Package transport provides the live channels between MPDA peers. A
// Packet is one unreliable lane of datagrams toward a peer — an in-memory
// PacketPipe, a UDP socket (WithFaults perturbs either) or a TCP stream
// read a frame at a time — and ARQ is the selective-repeat state machine
// that rebuilds reliability on top of one: no I/O, no lock, no goroutine,
// stepped by its driver. internal/node steps one per peer under its node
// lock; ARQConn steps one over a Packet as a Conn, the abstract frame
// connection, whose other implementations are the in-memory Pipe and the
// TCP StreamConn.
//
// The contract every Conn must honor is exactly the assumption the paper
// makes of its link model and that internal/protonet emulates in
// simulation: frames submitted on one side are delivered on the other side
// reliably, in submission order, exactly once ("LSUs are delivered
// reliably and in sequence"). MPDA's correctness leans on this — a
// duplicated LSU would mint a spurious ACK credit and break the loop-free
// invariant, and a reordered one would tear the single-hop synchronization
// of the ACTIVE phase. The conformance suite in
// internal/transport/conformancetest states the contract as executable
// property tests; every implementation in this package must pass it,
// including UDP+ARQ under seeded loss, duplication, and reordering.
package transport

import (
	"errors"
	"sync"

	"minroute/internal/wire"
)

// ErrClosed is returned by operations on a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// Conn is one side of a peer-to-peer frame channel with the reliable,
// in-order, exactly-once delivery contract described in the package
// comment. Send and Recv are safe for concurrent use; Recv blocks until a
// frame arrives or the connection closes. Implementations own the frames
// they return; callers own the frames they pass to Send (Send must not
// retain them).
type Conn interface {
	Send(f *wire.Frame) error
	Recv() (*wire.Frame, error)
	Close() error
}

// Timer is a pending clock callback; Stop cancels it, reporting whether it
// was still pending.
type Timer interface {
	Stop() bool
}

// Clock abstracts the timebase of the live stack. Now returns seconds
// since an arbitrary epoch; AfterFunc schedules fn after d seconds. The
// wall implementation lives in internal/node (the single sanctioned
// wall-clock boundary — see the nowall lint check); VirtualClock drives
// deterministic tests.
type Clock interface {
	Now() float64
	AfterFunc(d float64, fn func()) Timer
}

// Queue is an unbounded, closable FIFO of frames: the receive buffer of the
// in-memory pipe and of ARQConn, where a Conn's Recv waits. Push never
// blocks. After Close, pops drain the remaining frames and then report
// ErrClosed (the TCP FIN model: data already sent is still delivered — so
// a final BYE still flushes).
type Queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	frames []*wire.Frame
	closed bool
}

// NewQueue returns an empty open queue.
func NewQueue() *Queue {
	q := &Queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push appends frames under one lock acquisition — the ARQ receive path
// delivers every frame decoded from a coalesced datagram in one call. It
// reports false when the queue is closed.
func (q *Queue) Push(fs ...*wire.Frame) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.frames = append(q.frames, fs...)
	q.cond.Broadcast()
	return true
}

// Pop blocks for the next frame; it returns ErrClosed once the queue is
// closed and drained.
func (q *Queue) Pop() (*wire.Frame, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.frames) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.frames) == 0 {
		return nil, ErrClosed
	}
	f := q.frames[0]
	q.frames[0] = nil
	q.frames = q.frames[1:]
	return f, nil
}

// Close marks the queue closed and wakes all waiters.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// cloneFrame deep-copies f so queued frames never alias caller buffers.
func cloneFrame(f *wire.Frame) *wire.Frame {
	c := &wire.Frame{Type: f.Type, Seq: f.Seq}
	if len(f.Payload) > 0 {
		c.Payload = append([]byte(nil), f.Payload...)
	}
	return c
}
