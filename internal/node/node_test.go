package node_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"minroute/internal/graph"
	"minroute/internal/leaktest"
	"minroute/internal/lsu"
	"minroute/internal/node"
	"minroute/internal/telemetry"
	"minroute/internal/transport"
	"minroute/internal/wire"
)

// waitUntil polls cond with short real sleeps so asynchronous session
// goroutines can settle; it fails the test on timeout.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func fixedCost(c float64) func(graph.NodeID) (float64, bool) {
	return func(graph.NodeID) (float64, bool) { return c, true }
}

// watchedLane is a node's lane that reports when the node closes it.
type watchedLane struct {
	transport.Packet
	once   sync.Once
	closed chan struct{}
}

func (l *watchedLane) Close() error {
	l.once.Do(func() { close(l.closed) })
	return l.Packet.Close()
}

func (l *watchedLane) isClosed() bool {
	select {
	case <-l.closed:
		return true
	default:
		return false
	}
}

// farPipe returns a lane for the node under test and, on the other end of
// an in-memory pipe, the ARQ Conn the test plays the peer through (closed
// when the test ends).
func farPipe(t *testing.T, clk transport.Clock) (*watchedLane, transport.Conn) {
	t.Helper()
	a, b := transport.PacketPipe()
	far := transport.NewARQ(b, transport.ARQConfig{}, clk)
	t.Cleanup(func() { far.Close() })
	return &watchedLane{Packet: a, closed: make(chan struct{})}, far
}

// TestHandshakeBringsLinkUp: two live nodes over an in-memory pipe
// exchange HELLOs, bring the link up, and converge to each other's
// distance.
func TestHandshakeBringsLinkUp(t *testing.T) {
	leaktest.Check(t)
	clk := transport.NewVirtualClock()
	a, err := node.New(node.Config{ID: 0, Nodes: 2, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	b, err := node.New(node.Config{ID: 1, Nodes: 2, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	ca, cb := transport.PacketPipe()
	a.AddPeer(ca, fixedCost(2.5))
	b.AddPeer(cb, fixedCost(2.5))

	waitUntil(t, "both sessions up", func() bool {
		return a.PeerCount() == 1 && b.PeerCount() == 1
	})
	waitUntil(t, "both routers passive", func() bool {
		return a.Passive() && b.Passive()
	})
	if got := a.Peers(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("a.Peers() = %v, want [1]", got)
	}
	wantA := "router 0\n dst 0 D=0 S=[]\n dst 1 D=2.5 S=[1]\n"
	if s := a.Summary(); s != wantA {
		t.Fatalf("a summary:\n%s\nwant:\n%s", s, wantA)
	}
}

// TestHeartbeatKeepsSessionAlive: with traffic quiet, heartbeats alone
// must keep resetting the dead timer across many DeadAfter periods. The
// second run starts its virtual clock 1e6 s in, far from the test binary's
// uptime, so session code that stamped liveness from the wall clock rather
// than the configured Clock would drop heartbeating peers whatever the
// test order.
func TestHeartbeatKeepsSessionAlive(t *testing.T) {
	for _, c := range []struct {
		name  string
		start float64
	}{{"clock-at-0", 0}, {"clock-at-1e6", 1e6}} {
		t.Run(c.name, func(t *testing.T) {
			leaktest.Check(t)
			clk := transport.NewVirtualClock()
			clk.Advance(c.start)
			cfg := node.Config{Nodes: 2, Clock: clk, HeartbeatEvery: 0.25, DeadAfter: 1.0}
			cfg.ID = 0
			a, err := node.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.ID = 1
			b, err := node.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			defer b.Close()

			ca, cb := transport.PacketPipe()
			a.AddPeer(ca, fixedCost(1))
			b.AddPeer(cb, fixedCost(1))
			waitUntil(t, "sessions up", func() bool {
				return a.PeerCount() == 1 && b.PeerCount() == 1
			})

			// Five virtual seconds — five DeadAfter periods — in heartbeat steps.
			for i := 0; i < 20; i++ {
				clk.Advance(0.25)
				// Let the heartbeat frames propagate and reset the dead timers
				// before virtual time moves again.
				time.Sleep(2 * time.Millisecond)
			}
			if a.PeerCount() != 1 || b.PeerCount() != 1 {
				t.Fatalf("sessions died under heartbeats: a=%d b=%d peers", a.PeerCount(), b.PeerCount())
			}
		})
	}
}

// TestDeadTimerDropsSilentPeer: a peer that completes the handshake and
// then goes silent is declared down after DeadAfter and removed from the
// routing table, with peer_up/peer_down telemetry bracketing the session.
func TestDeadTimerDropsSilentPeer(t *testing.T) {
	leaktest.Check(t)
	clk := transport.NewVirtualClock()
	tr := node.NewTrace(telemetry.NewTracer(2, 0))
	a, err := node.New(node.Config{ID: 0, Nodes: 2, Clock: clk, DeadAfter: 1.0, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	ca, cb := farPipe(t, clk)
	a.AddPeer(ca, fixedCost(3))
	// The test plays the remote peer by hand: handshake, then silence.
	if err := cb.Send(wire.NewHello(1)); err != nil {
		t.Fatal(err)
	}
	if f, err := cb.Recv(); err != nil || f.Type != wire.TypeHello {
		t.Fatalf("expected node's HELLO, got %v, %v", f, err)
	}
	waitUntil(t, "session up", func() bool { return a.PeerCount() == 1 })

	clk.Advance(1.5)
	waitUntil(t, "silent peer dropped", func() bool { return a.PeerCount() == 0 })
	waitUntil(t, "router forgets the link", func() bool {
		return a.Passive() && a.Summary() == "router 0\n dst 0 D=0 S=[]\n dst 1 D=+Inf S=[]\n"
	})

	var up, down int
	var downLabel string
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case telemetry.KindPeerUp:
			up++
		case telemetry.KindPeerDown:
			down++
			downLabel = ev.Label
		}
	}
	if up != 1 || down != 1 || downLabel != "timeout" {
		t.Fatalf("telemetry: up=%d down=%d label=%q, want 1/1/timeout", up, down, downLabel)
	}
}

// TestByeDropsPeerImmediately: a BYE tears the session down without
// waiting out the dead timer.
func TestByeDropsPeerImmediately(t *testing.T) {
	leaktest.Check(t)
	clk := transport.NewVirtualClock()
	a, err := node.New(node.Config{ID: 0, Nodes: 2, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	ca, cb := farPipe(t, clk)
	a.AddPeer(ca, fixedCost(3))
	if err := cb.Send(wire.NewHello(1)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "session up", func() bool { return a.PeerCount() == 1 })
	if err := cb.Send(wire.NewBye()); err != nil {
		t.Fatal(err)
	}
	// No clock advance: the drop must come from the BYE alone.
	waitUntil(t, "peer dropped on BYE", func() bool { return a.PeerCount() == 0 })
}

// TestCostOfRejectsUnknownPeer: a session whose peer the cost callback
// disowns never comes up.
func TestCostOfRejectsUnknownPeer(t *testing.T) {
	leaktest.Check(t)
	clk := transport.NewVirtualClock()
	a, err := node.New(node.Config{ID: 0, Nodes: 3, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	ca, cb := farPipe(t, clk)
	a.AddPeer(ca, func(p graph.NodeID) (float64, bool) { return 0, false })
	if err := cb.Send(wire.NewHello(1)); err != nil {
		t.Fatal(err)
	}
	// The node must close the lane instead of registering the peer.
	waitUntil(t, "connection rejected", ca.isClosed)
	if a.PeerCount() != 0 {
		t.Fatalf("rejected peer registered anyway")
	}
}

// TestChangeCost: a management-plane cost change re-floods and settles on
// the new distance.
func TestChangeCost(t *testing.T) {
	leaktest.Check(t)
	clk := transport.NewVirtualClock()
	a, _ := node.New(node.Config{ID: 0, Nodes: 2, Clock: clk})
	b, _ := node.New(node.Config{ID: 1, Nodes: 2, Clock: clk})
	defer a.Close()
	defer b.Close()
	ca, cb := transport.PacketPipe()
	a.AddPeer(ca, fixedCost(2))
	b.AddPeer(cb, fixedCost(2))
	waitUntil(t, "converged", func() bool {
		return a.PeerCount() == 1 && b.PeerCount() == 1 && a.Passive() && b.Passive()
	})

	if err := a.ChangeCost(1, 5); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "new cost propagates", func() bool {
		return a.Passive() && a.Summary() == "router 0\n dst 0 D=0 S=[]\n dst 1 D=5 S=[1]\n"
	})
	if err := a.ChangeCost(0, 1); err == nil {
		t.Fatalf("ChangeCost to non-peer succeeded")
	}
}

// TestCloseReapsPendingHandshake: a session whose remote never answers the
// HELLO keeps its lane's reader waiting. Close must reach that lane and
// reap the reader — before the handshake-reap fix, the session (and its
// conn) leaked past Close. leaktest arms the actual leak check.
func TestCloseReapsPendingHandshake(t *testing.T) {
	leaktest.Check(t)
	clk := transport.NewVirtualClock()
	n, err := node.New(node.Config{ID: 0, Nodes: 2, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}

	ca, cb := transport.PacketPipe()
	n.AddPeer(ca, fixedCost(1))
	// The far side swallows our HELLO and goes silent, so the reader waits
	// for a reply that will never come.
	buf := make([]byte, transport.MaxDatagram)
	k, err := cb.ReadPacket(buf)
	if err != nil {
		t.Fatalf("far side failed to read our HELLO: %v", err)
	}
	if f, err := wire.Decode(buf[:k]); err != nil || f.Type != wire.TypeHello {
		t.Fatalf("far side got %v, %v, want our HELLO", f, err)
	}

	n.Close()
	if n.PeerCount() != 0 {
		t.Fatalf("PeerCount() = %d after Close, want 0", n.PeerCount())
	}
	// Deliberately no cb.Close(): the reader's exit must come from our
	// Close reaping ca, not from the far side hanging up.
}

// TestCloseTwiceThenLock: a second Close takes the already-closed path,
// which must release the node's lock, so a method that takes it afterwards
// (Sample) returns. A watchdog fails the test within seconds instead of at
// the package timeout.
func TestCloseTwiceThenLock(t *testing.T) {
	leaktest.Check(t)
	n, err := node.New(node.Config{ID: 0, Nodes: 2, Clock: transport.NewVirtualClock()})
	if err != nil {
		t.Fatal(err)
	}
	n.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		n.Close()
		n.Sample()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Sample hung after a second Close: the already-closed path kept the node locked")
	}
}

// TestAddPeerAfterCloseClosesConn: a lane handed to a closed node must be
// released immediately, not left to a reader forever.
func TestAddPeerAfterCloseClosesConn(t *testing.T) {
	leaktest.Check(t)
	clk := transport.NewVirtualClock()
	n, err := node.New(node.Config{ID: 0, Nodes: 2, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	n.Close()

	ca, _ := farPipe(t, clk)
	n.AddPeer(ca, fixedCost(1))
	waitUntil(t, "lane closed by AddPeer on a closed node", ca.isClosed)
}

// playPeer joins a as router id over an in-memory pipe, played by hand: it
// handshakes, then acknowledges every entry-bearing LSU a sends (an
// unacknowledged flood would hold a ACTIVE, its MTU deferred) until the
// conn closes. The returned end is for the test's own LSUs.
func playPeer(t *testing.T, a *node.Node, id graph.NodeID, cost float64) transport.Conn {
	t.Helper()
	ca, cb := farPipe(t, transport.NewVirtualClock())
	before := a.PeerCount()
	a.AddPeer(ca, fixedCost(cost))
	if err := cb.Send(wire.NewHello(id)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "session up", func() bool { return a.PeerCount() == before+1 })
	go func() {
		for {
			f, err := cb.Recv()
			if err != nil {
				return
			}
			if m, err := wire.LSUMsg(f); err == nil && len(m.Entries) > 0 {
				// Errors dropped: a's Close races this ACK, and the test
				// may be over by the time Send fails.
				if ack, err := wire.NewLSU(&lsu.Msg{From: id, Ack: true}); err == nil {
					_ = cb.Send(ack)
				}
			}
		}
	}()
	return cb
}

func sendLSU(t *testing.T, c transport.Conn, m *lsu.Msg) {
	f, err := wire.NewLSU(m)
	if err != nil {
		t.Error(err)
		return
	}
	if err := c.Send(f); err != nil {
		t.Error(err)
	}
}

// TestLSUNamingAnotherOriginDropped: the session a frame arrives on says
// who sent it. An LSU whose From names a different neighbor used to be
// applied to that neighbor's T_k — peer 1 could announce routes in peer 2's
// name. It is dropped; the honest LSU behind it on the same conn applies.
func TestLSUNamingAnotherOriginDropped(t *testing.T) {
	leaktest.Check(t)
	a, err := node.New(node.Config{ID: 0, Nodes: 4, Clock: transport.NewVirtualClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	c1 := playPeer(t, a, 1, 1)
	playPeer(t, a, 2, 1)

	sendLSU(t, c1, &lsu.Msg{From: 2, Entries: []lsu.Entry{{Op: lsu.OpAdd, Head: 2, Tail: 3, Cost: 1}}})
	sendLSU(t, c1, &lsu.Msg{From: 1, Entries: []lsu.Entry{{Op: lsu.OpAdd, Head: 1, Tail: 3, Cost: 5}}})
	// Forged route: D_3 = 1+1 through 2. Honest route: D_3 = 1+5 through 1.
	waitUntil(t, "dst 3 reached through 1 only", func() bool {
		return a.Passive() && strings.Contains(a.Summary(), " dst 3 D=6 S=[1]\n")
	})
}

// TestLSUEntryOutsideIDSpaceDropped: an entry naming a router outside
// [0, Nodes) used to index past the receiver's tables and kill the process.
// It is dropped; the in-space entry of the same LSU applies.
func TestLSUEntryOutsideIDSpaceDropped(t *testing.T) {
	leaktest.Check(t)
	a, err := node.New(node.Config{ID: 0, Nodes: 4, Clock: transport.NewVirtualClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	c1 := playPeer(t, a, 1, 1)

	sendLSU(t, c1, &lsu.Msg{From: 1, Entries: []lsu.Entry{
		{Op: lsu.OpAdd, Head: 1, Tail: 9, Cost: 1},
		{Op: lsu.OpAdd, Head: 9, Tail: 3, Cost: 1},
		{Op: lsu.OpAdd, Head: 1, Tail: 3, Cost: 5},
	}})
	waitUntil(t, "dst 3 reached", func() bool {
		return a.Passive() && strings.Contains(a.Summary(), " dst 3 D=6 S=[1]\n")
	})
}

// TestHelloOutsideIDSpaceRejected: a HELLO whose ID has the top bit set
// decodes to a negative NodeID, which used to pass the upper-bound check
// and index the router's tables at LinkUp. It cannot cross a lane; one
// naming a router past the ID space can, and that session is refused.
func TestHelloOutsideIDSpaceRejected(t *testing.T) {
	leaktest.Check(t)
	a, err := node.New(node.Config{ID: 0, Nodes: 4, Clock: transport.NewVirtualClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ca, cb := farPipe(t, transport.NewVirtualClock())
	a.AddPeer(ca, fixedCost(1))
	// The top-bit ID no longer gets that far: the wire format refuses to
	// encode it, and a lane's decoder drops it like any corrupt frame.
	if err := cb.Send(wire.NewHello(-3)); err == nil {
		t.Fatal("a HELLO naming a negative node went out")
	}
	if err := cb.Send(wire.NewHello(4)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "connection rejected", ca.isClosed)
	if a.PeerCount() != 0 {
		t.Fatalf("PeerCount = %d, want 0", a.PeerCount())
	}
}
