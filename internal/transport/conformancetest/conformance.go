// Package conformancetest is the executable statement of what MPDA
// assumes from its channels. The paper's protocol is specified over
// links where "LSUs are delivered reliably and in sequence" — the
// contract internal/protonet *emulates* for the simulator and every live
// transport must *earn*. Any Conn implementation that passes Run is a
// valid substrate for a live MPDA router; one that fails would break the
// protocol's per-neighbor ACK counting in ways the simulator can never
// reproduce.
//
// The suite checks, per connected pair:
//
//   - in-order delivery of long one-way bursts,
//   - exactly-once delivery (no duplicates surfacing, nothing skipped),
//   - bidirectional independence (full-duplex streams do not interfere),
//   - payload integrity for maximum-entry LSU frames,
//   - sending from within receive processing (protonet's unbounded-queue
//     property, which MPDA's ACK-triggered sends rely on),
//   - a high bandwidth-delay-product burst that forces a deep in-flight
//     window before the receiver drains,
//   - an acknowledgment-heavy burst/pause pattern that, over duplicating
//     channels, exercises the duplicate-SACK regime,
//   - local close unblocking pending Recvs and failing later Sends.
package conformancetest

import (
	"testing"
	"time"

	"minroute/internal/graph"
	"minroute/internal/leaktest"
	"minroute/internal/lsu"
	"minroute/internal/transport"
	"minroute/internal/wire"
)

// Factory builds one connected transport pair and a cleanup that
// releases everything the pair holds (sockets, goroutines). Each subtest
// calls it afresh.
type Factory func(t *testing.T) (a, b transport.Conn, cleanup func())

// Run executes the full conformance suite against pairs built by f. Every
// subtest is leak-checked: a transport whose cleanup leaves reader/writer
// goroutines or retransmit timers running fails the suite even if its
// delivery semantics pass.
func Run(t *testing.T, f Factory) {
	check := func(name string, fn func(*testing.T, Factory)) {
		t.Run(name, func(t *testing.T) {
			leaktest.Check(t)
			fn(t, f)
		})
	}
	check("InOrder", inOrder)
	check("ExactlyOnceLSU", exactlyOnceLSU)
	check("Bidirectional", bidirectional)
	check("PayloadIntegrity", payloadIntegrity)
	check("SendWithinRecv", sendWithinRecv)
	check("HighBDP", highBDP)
	check("DupSackStress", dupSackStress)
	check("CloseSemantics", closeSemantics)
}

// recvHello reads one frame and requires it to be a hello with an id.
func recvHello(t *testing.T, c transport.Conn) int {
	t.Helper()
	fr, err := c.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if fr.Type != wire.TypeHello {
		t.Fatalf("got frame type %v, want hello", fr.Type)
	}
	id, err := wire.HelloNode(fr)
	if err != nil {
		t.Fatalf("HelloNode: %v", err)
	}
	return int(id)
}

// inOrder sends a long one-way burst and requires arrival in sequence.
func inOrder(t *testing.T, f Factory) {
	a, b, cleanup := f(t)
	defer cleanup()
	const n = 200
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := a.Send(wire.NewHello(graph.NodeID(i))); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < n; i++ {
		if got := recvHello(t, b); got != i {
			t.Fatalf("frame %d arrived as id %d: order violated", i, got)
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("Send: %v", err)
	}
}

// exactlyOnceLSU streams distinct LSUs and requires each to surface
// exactly once: a duplicate shows up as a repeated From, a loss as a gap.
func exactlyOnceLSU(t *testing.T, f Factory) {
	a, b, cleanup := f(t)
	defer cleanup()
	const n = 100
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			m := &lsu.Msg{From: graph.NodeID(i), Ack: i%2 == 0, Entries: []lsu.Entry{
				{Op: lsu.OpAdd, Head: graph.NodeID(i), Tail: graph.NodeID(i + 1), Cost: float64(i) + 0.5},
			}}
			fr, err := wire.NewLSU(m)
			if err == nil {
				err = a.Send(fr)
			}
			if err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < n; i++ {
		fr, err := b.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		m, err := wire.LSUMsg(fr)
		if err != nil {
			t.Fatalf("LSUMsg %d: %v", i, err)
		}
		if int(m.From) != i {
			t.Fatalf("LSU %d surfaced with From=%d: duplicate or loss leaked through", i, m.From)
		}
		// The wire round trip must keep the exact bits.
		if len(m.Entries) != 1 || int(m.Entries[0].Head) != i || m.Entries[0].Cost != float64(i)+0.5 {
			t.Fatalf("LSU %d payload mangled: %+v", i, m.Entries)
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("Send: %v", err)
	}
}

// bidirectional runs independent full-duplex streams.
func bidirectional(t *testing.T, f Factory) {
	a, b, cleanup := f(t)
	defer cleanup()
	const n = 100
	run := func(tx, rx transport.Conn, errc chan<- error) {
		sendErr := make(chan error, 1)
		go func() {
			for i := 0; i < n; i++ {
				if err := tx.Send(wire.NewHello(graph.NodeID(i))); err != nil {
					sendErr <- err
					return
				}
			}
			sendErr <- nil
		}()
		for i := 0; i < n; i++ {
			fr, err := rx.Recv()
			if err != nil {
				errc <- err
				return
			}
			id, err := wire.HelloNode(fr)
			if err != nil {
				errc <- err
				return
			}
			if int(id) != i {
				errc <- errOrder{want: i, got: int(id)}
				return
			}
		}
		errc <- <-sendErr
	}
	e1 := make(chan error, 1)
	e2 := make(chan error, 1)
	go run(a, b, e1)
	go run(b, a, e2)
	if err := <-e1; err != nil {
		t.Fatalf("a→b stream: %v", err)
	}
	if err := <-e2; err != nil {
		t.Fatalf("b→a stream: %v", err)
	}
}

type errOrder struct{ want, got int }

func (e errOrder) Error() string {
	return "order violated: want " + itoa(e.want) + ", got " + itoa(e.got)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// payloadIntegrity pushes a full-table-sized LSU through and compares the
// marshalled bytes end to end.
func payloadIntegrity(t *testing.T, f Factory) {
	a, b, cleanup := f(t)
	defer cleanup()
	m := &lsu.Msg{From: 3, Ack: true}
	for i := 0; i < 512; i++ {
		m.Entries = append(m.Entries, lsu.Entry{
			Op: lsu.OpAdd, Head: graph.NodeID(i % 40), Tail: graph.NodeID((i + 1) % 40),
			Cost: 1.0 / float64(i+1),
		})
	}
	want, err := m.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	fr, err := wire.NewLSU(m)
	if err != nil {
		t.Fatalf("NewLSU: %v", err)
	}
	errc := make(chan error, 1)
	go func() { errc <- a.Send(fr) }()
	got, err := b.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("Send: %v", err)
	}
	if string(got.Payload) != string(want) {
		t.Fatalf("LSU payload corrupted in transit (%d bytes vs %d)", len(got.Payload), len(want))
	}
}

// sendWithinRecv has b echo every frame back from its receive loop while
// a has already queued the whole burst — the pattern MPDA uses when an
// incoming LSU triggers an outgoing ACK. No transport may deadlock here.
func sendWithinRecv(t *testing.T, f Factory) {
	a, b, cleanup := f(t)
	defer cleanup()
	const n = 200
	go func() {
		for {
			fr, err := b.Recv()
			if err != nil {
				return
			}
			if err := b.Send(fr); err != nil {
				return
			}
		}
	}()
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := a.Send(wire.NewHello(graph.NodeID(i))); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < n; i++ {
		if got := recvHello(t, a); got != i {
			t.Fatalf("echo %d arrived as id %d", i, got)
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("Send: %v", err)
	}
}

// highBDP is the high bandwidth-delay-product scenario: a large burst is
// queued while the receiver deliberately sits idle, so a windowed
// transport must park a deep in-flight window (and, under injected loss
// and reordering, repair holes all across it) before delivery resumes.
// Every frame must still surface in order, exactly once.
func highBDP(t *testing.T, f Factory) {
	a, b, cleanup := f(t)
	defer cleanup()
	const n = 2000
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := a.Send(wire.NewHello(graph.NodeID(i))); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	// Let the sender run far ahead: everything it can put in flight is in
	// flight (window-limited transports are now blocked in Send).
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < n; i++ {
		if got := recvHello(t, b); got != i {
			t.Fatalf("frame %d arrived as id %d under a deep window", i, got)
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("Send: %v", err)
	}
}

// dupSackStress drives many small bursts separated by pauses. The pauses
// let the acknowledgment path fully drain between bursts, so transports
// whose channel duplicates or reorders datagrams (the faulted UDP
// factories) see runs of redundant acknowledgments for an unmoving window
// — the duplicate-SACK regime, where a spurious fast retransmit must
// surface as nothing worse than a discarded duplicate.
func dupSackStress(t *testing.T, f Factory) {
	a, b, cleanup := f(t)
	defer cleanup()
	const rounds, burst = 40, 25
	errc := make(chan error, 1)
	go func() {
		for r := 0; r < rounds; r++ {
			for i := 0; i < burst; i++ {
				if err := a.Send(wire.NewHello(graph.NodeID(r*burst + i))); err != nil {
					errc <- err
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
		errc <- nil
	}()
	for i := 0; i < rounds*burst; i++ {
		if got := recvHello(t, b); got != i {
			t.Fatalf("frame %d arrived as id %d across ack-drained bursts", i, got)
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("Send: %v", err)
	}
}

// closeSemantics: closing the local side unblocks its pending Recv and
// fails its later Sends.
func closeSemantics(t *testing.T, f Factory) {
	a, b, cleanup := f(t)
	defer cleanup()
	_ = a
	recvErr := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		recvErr <- err
	}()
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-recvErr; err == nil {
		t.Fatalf("Recv returned nil error after local Close")
	}
	if err := b.Send(wire.NewHeartbeat()); err == nil {
		t.Fatalf("Send succeeded after Close")
	}
}
