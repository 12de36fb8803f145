package transport

import (
	"sync"

	"minroute/internal/wire"
)

// memConn is one side of an in-memory pipe: Send pushes into the peer's
// receive queue, Recv pops from our own. The queue is unbounded, so an
// event loop can Send from within its own Recv processing without
// deadlock — the same property protonet's queues have.
type memConn struct {
	recv *Queue
	peer *Queue

	mu     sync.Mutex
	closed bool
}

// Pipe returns a connected pair of in-memory Conns. Delivery is
// synchronous with Send (no goroutines), reliable, FIFO, exactly-once —
// the contract with zero machinery, which makes it the reference
// implementation for the conformance suite and the transport of choice
// for deterministic node tests under a virtual clock.
func Pipe() (Conn, Conn) {
	qa, qb := NewQueue(), NewQueue()
	a := &memConn{recv: qa, peer: qb}
	b := &memConn{recv: qb, peer: qa}
	return a, b
}

// Send delivers f into the peer's receive queue.
func (c *memConn) Send(f *wire.Frame) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if !c.peer.Push(cloneFrame(f)) {
		return ErrClosed
	}
	return nil
}

// Recv blocks for the next frame.
func (c *memConn) Recv() (*wire.Frame, error) { return c.recv.Pop() }

// Close tears down both directions: our pending frames drain on the peer,
// then both sides observe ErrClosed.
func (c *memConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.recv.Close()
	c.peer.Close()
	return nil
}
