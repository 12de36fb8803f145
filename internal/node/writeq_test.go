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

// closeWatch is a lane that reports whether the node closed it.
type closeWatch struct {
	transport.Packet
	once   sync.Once
	closed chan struct{}
}

func (l *closeWatch) Close() error {
	l.once.Do(func() { close(l.closed) })
	return l.Packet.Close()
}

// TestStalledPeerOverflowsWriterQueue: a peer that answers the HELLO and
// then acknowledges nothing fills the ARQ window, after which frames wait in
// the session's backlog (heartbeats alone suffice) until it hits
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
	a, far := transport.PacketPipe()
	defer far.Close()
	lane := &closeWatch{Packet: a, closed: make(chan struct{})}
	// A small window: the backlog, not the window, is under test.
	n.addPeer(lane, func(graph.NodeID) (float64, bool) { return 1, true }, transport.ARQConfig{Window: 4})
	hello := wire.NewHello(1)
	hello.Seq = 1
	dgram, err := hello.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := far.WritePacket(dgram); err != nil {
		t.Fatal(err)
	}
	for i := 0; n.PeerCount() != 1; i++ {
		if i > 2000 {
			t.Fatal("session with the stalled peer never came up")
		}
		time.Sleep(time.Millisecond)
	}
	n.mu.Lock()
	s := n.peers[1]
	n.mu.Unlock()
	backlog := func() int {
		n.mu.Lock()
		defer n.mu.Unlock()
		return len(s.backlog)
	}

	// One heartbeat per virtual second; the window holds the first few, so
	// the backlog fills within maxWriteQueue + a few beats.
	peak := 0
	for beat := 0; beat < maxWriteQueue+16 && n.PeerCount() == 1; beat++ {
		clk.Advance(1)
		peak = max(peak, backlog())
	}
	if n.PeerCount() != 0 {
		t.Fatalf("stalled peer still up with %d frames waiting", backlog())
	}
	if peak > maxWriteQueue {
		t.Fatalf("backlog reached %d frames, bound is %d", peak, maxWriteQueue)
	}
	if _, up := n.agent.Protocol().Tables().AdjCost(1); up {
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
	case <-lane.closed:
	default:
		t.Fatal("the stalled peer's lane was not closed")
	}
}
