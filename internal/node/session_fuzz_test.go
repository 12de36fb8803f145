package node

import (
	"encoding/binary"
	"testing"

	"minroute/internal/graph"
	"minroute/internal/lsu"
	"minroute/internal/telemetry"
	"minroute/internal/transport"
	"minroute/internal/wire"
)

// fuzzLane is a hostile peer's end of one lane: the node's datagrams go
// straight into the peer's ARQ, which only acknowledges them, and the
// fuzzer decides what the peer sends back.
type fuzzLane struct {
	far    *transport.ARQ
	now    func() float64
	s      *session
	closed bool
}

func (l *fuzzLane) WritePacket(b []byte) error {
	l.far.Handle(l.now(), b)
	return nil
}

func (l *fuzzLane) ReadPacket([]byte) (int, error) { return 0, transport.ErrClosed }

func (l *fuzzLane) Close() error {
	l.closed = true
	return nil
}

// FuzzSession faces one node (router 0 of 4) with up to three lanes whose
// far ends send whatever the input decodes to: HELLOs naming itself, its
// peers, refused or out-of-range IDs, and their replays; BYEs and
// heartbeats; LSUs naming any origin with entries naming any router;
// data frames at any sequence number, wrap included; SACKs with any
// cumulative ack and bitmap; and raw bytes — with virtual time passing in
// between and fresh lanes replacing closed ones. Nothing may panic, no
// peer ID may own two live sessions, and the LinkUp and LinkDown the node
// hands its router must balance: every up session is a link the router
// holds, and no other.
func FuzzSession(f *testing.F) {
	// Op byte: bits 6-7 pick the lane, the low three bits the action (0
	// HELLO, 1 BYE, 2 LSU, 3 heartbeat, 4 flush the far end, 5 data and 6
	// SACK at a raw sequence number, 7 time or raw bytes).
	f.Add([]byte{0x00, 1, 0x04, 0x40, 1, 0x44})                                                    // two lanes claim peer 1
	f.Add([]byte{0x00, 1, 0x04, 0x01, 0x04, 0x00, 2, 0x04, 0x00, 2, 0x04})                         // up, BYE, a fresh lane, a HELLO replay
	f.Add([]byte{0x00, 0, 0x04, 0x40, 3, 0x44, 0x80, 5, 0x84, 0x00, 0x80, 0x04})                   // self, refused, out of range, negative
	f.Add([]byte{0x00, 1, 0x04, 0x02, 2, 0, 1, 0, 1, 3, 5, 0x04, 0x02, 1, 1, 1, 0, 9, 3, 5, 0x04}) // LSUs naming 2, then an entry past the ID space
	f.Add([]byte{0x00, 1, 0x04, 0x27, 200, 0x40, 2, 0x44, 0x67, 10})                               // a silent peer times out
	f.Add([]byte{0x00, 1, 0x04, 0x05, 0xff, 0xff, 0xff, 0xf0, 0x06, 0, 0, 0, 5, 255, 0x07, 6, 1, 2, 3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, in []byte) {
		clk := transport.NewVirtualClock()
		reg := telemetry.NewRegistry(0)
		n, err := New(Config{ID: 0, Nodes: 4, Clock: clk, Metrics: reg, HeartbeatEvery: 0.25, DeadAfter: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		costOf := func(p graph.NodeID) (float64, bool) { return float64(p), p != 3 }
		var lanes [3]*fuzzLane
		lane := func(k int) *fuzzLane {
			if l := lanes[k]; l != nil && !l.closed {
				return l
			}
			l := &fuzzLane{far: transport.NewARQMachine(transport.ARQConfig{}), now: clk.Now}
			l.s = n.attach(l, costOf, transport.ARQConfig{})
			lanes[k] = l
			return l
		}
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		id := func() graph.NodeID {
			switch b := next(); {
			case b < 8:
				return graph.NodeID(b) // self, peers, the refused 3, just out of range
			default:
				return graph.NodeID(int32(uint32(b) << 24)) // negative or far out of range
			}
		}
		for len(in) > 0 {
			op := next()
			l := lane(int(op>>6) % 3)
			var fr *wire.Frame
			switch op & 0x3f % 8 {
			case 0:
				fr = wire.NewHello(id())
			case 1:
				fr = wire.NewBye()
			case 2:
				m := &lsu.Msg{From: id(), Ack: next()&1 == 1}
				for k := next() % 4; k > 0; k-- {
					m.Entries = append(m.Entries, lsu.Entry{Op: lsu.Op(1 + next()%3), Head: id(), Tail: id(), Cost: float64(next()) + 1})
				}
				fr, _ = wire.NewLSU(m)
			case 3:
				fr = wire.NewHeartbeat()
			case 4: // everything the far end queued goes out
				for _, d := range l.far.Flush(clk.Now(), nil) {
					n.receive(l.s, d)
				}
			case 5, 6: // a data frame or a SACK at an arbitrary sequence number
				var b [4]byte
				for i := range b {
					b[i] = next()
				}
				raw := &wire.Frame{Type: wire.TypeHeartbeat, Seq: binary.BigEndian.Uint32(b[:])}
				if op&0x3f%8 == 6 {
					bm := make([]byte, int(next())*2)
					for i := range bm {
						bm[i] = 0xff
					}
					raw = wire.NewSack(raw.Seq, bm)
				}
				if d, err := raw.Encode(); err == nil {
					n.receive(l.s, d)
				}
			case 7:
				if op&0x20 != 0 {
					clk.Advance(float64(next()) * 0.01)
				} else {
					k := int(next()) % 32
					n.receive(l.s, in[:min(k, len(in))])
					in = in[min(k, len(in)):]
				}
			}
			if fr != nil {
				_ = l.far.Send(fr)
			}
			checkSessions(t, n, reg)
		}
	})
}

// checkSessions asserts one live session per peer ID and a router whose
// links are exactly the up sessions, with peer_ups - peer_downs of them.
func checkSessions(t *testing.T, n *Node, reg *telemetry.Registry) {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	owners := make([]int, n.cfg.Nodes)
	for _, s := range n.sessions {
		if s.up {
			owners[s.id]++
			if n.peers[s.id] != s {
				t.Fatalf("peer %d: up session is not the one the node routes by", s.id)
			}
		}
	}
	up := 0
	for id, k := range owners {
		if k > 1 {
			t.Fatalf("peer %d owns %d live sessions", id, k)
		}
		_, linked := n.agent.Protocol().Tables().AdjCost(graph.NodeID(id))
		if linked != (k == 1) {
			t.Fatalf("peer %d: router link up %v, live sessions %d", id, linked, k)
		}
		up += k
	}
	ups, downs := reg.Counter("session.peer_ups").Value(), reg.Counter("session.peer_downs").Value()
	if int(ups-downs) != up || n.npeers != up {
		t.Fatalf("LinkUp %v, LinkDown %v, but %d sessions up (npeers %d)", ups, downs, up, n.npeers)
	}
}
