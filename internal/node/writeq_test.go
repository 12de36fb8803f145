package node

import (
	"sync"
	"testing"
	"time"

	"minroute/internal/graph"
	"minroute/internal/leaktest"
	"minroute/internal/telemetry"
	"minroute/internal/transport"
	"minroute/internal/wire"
)

// stalledConn is a peer whose transport has stopped reading: it answers
// the HELLO exchange, then every further Send blocks until Close, and Recv
// never yields another frame.
type stalledConn struct {
	hello  chan *wire.Frame
	closed chan struct{}
	once   sync.Once
	mu     sync.Mutex
	sends  int
}

func newStalledConn(peer graph.NodeID) *stalledConn {
	c := &stalledConn{hello: make(chan *wire.Frame, 1), closed: make(chan struct{})}
	c.hello <- wire.NewHello(peer)
	return c
}

func (c *stalledConn) Send(*wire.Frame) error {
	c.mu.Lock()
	c.sends++
	first := c.sends == 1 // our own HELLO goes through
	c.mu.Unlock()
	if first {
		return nil
	}
	<-c.closed
	return transport.ErrClosed
}

func (c *stalledConn) Recv() (*wire.Frame, error) {
	select {
	case f := <-c.hello:
		return f, nil
	case <-c.closed:
		return nil, transport.ErrClosed
	}
}

func (c *stalledConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// TestStalledPeerOverflowsWriterQueue: a peer that stops accepting frames
// makes its writer queue grow (heartbeats alone suffice) until it hits
// maxWriteQueue; the session then ends as a dead link — peer_down with
// reason "overflow", LinkDown to the router, one session.writeq_overflows —
// rather than growing without bound or dropping a frame silently.
func TestStalledPeerOverflowsWriterQueue(t *testing.T) {
	leaktest.Check(t)
	clk := transport.NewVirtualClock()
	reg := telemetry.NewRegistry(0)
	tr := NewTrace(telemetry.NewTracer(2, 1<<10))
	// DeadAfter is out of reach: only the overflow can end this session.
	n, err := New(Config{ID: 0, Nodes: 2, Clock: clk, HeartbeatEvery: 1, DeadAfter: 1e9, Metrics: reg, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	conn := newStalledConn(1)
	n.AddPeer(conn, func(graph.NodeID) (float64, bool) { return 1, true })
	for i := 0; n.PeerCount() != 1; i++ {
		if i > 2000 {
			t.Fatal("session with the stalled peer never came up")
		}
		time.Sleep(time.Millisecond)
	}
	n.mu.Lock()
	p := n.peers[1]
	n.mu.Unlock()

	// One heartbeat per virtual second; the writer holds at most the first
	// burst, so the queue fills within maxWriteQueue + a few beats.
	peak := 0
	for beat := 0; beat < maxWriteQueue+16 && n.PeerCount() == 1; beat++ {
		clk.Advance(1)
		if d := p.out.Depth(); d > peak {
			peak = d
		}
	}
	if n.PeerCount() != 0 {
		t.Fatalf("stalled peer still up with %d frames queued", p.out.Depth())
	}
	if peak > maxWriteQueue {
		t.Fatalf("writer queue reached %d frames, bound is %d", peak, maxWriteQueue)
	}
	if _, up := n.r.Tables().AdjCost(1); up {
		t.Fatal("router still believes the link to the stalled peer up")
	}
	if got := reg.Counter("session.writeq_overflows").Value(); got != 1 {
		t.Fatalf("session.writeq_overflows = %v, want 1", got)
	}
	reasons := []string{}
	for _, ev := range tr.Events() {
		if ev.Kind == telemetry.KindPeerDown {
			reasons = append(reasons, ev.Label)
		}
	}
	if len(reasons) != 1 || reasons[0] != "overflow" {
		t.Fatalf("peer_down reasons = %v, want [overflow]", reasons)
	}
	select {
	case <-conn.closed:
	default:
		t.Fatal("the stalled conn was not closed; its writer is wedged forever")
	}
}
