package transport

import (
	"encoding/binary"
	"math"
	"testing"

	"minroute/internal/graph"
	"minroute/internal/wire"
)

// fuzzEnd is one machine of FuzzARQ with the datagrams in flight toward it
// and how many HELLOs it has sent and had delivered in order.
type fuzzEnd struct {
	m          *ARQ
	inbox      [][]byte
	sent, seen int
}

// take feeds dgram to e and checks that what it delivers is the far end's
// next HELLOs, in order, each once.
func (e *fuzzEnd) take(t *testing.T, now float64, dgram []byte, far *fuzzEnd) {
	for _, f := range e.m.Handle(now, dgram) {
		id, err := wire.HelloNode(f)
		if err != nil || int(id) != e.seen {
			t.Fatalf("delivered %v (id %d, %v), want HELLO %d", f.Type, id, err, e.seen)
		}
		if e.seen++; e.seen > far.sent {
			t.Fatalf("delivered %d frames, only %d sent", e.seen, far.sent)
		}
	}
}

// flush moves e's due datagrams onto the lane toward far, and checks the
// timer invariant: with nothing left to send, a deadline is set exactly
// when frames are in flight.
func (e *fuzzEnd) flush(t *testing.T, now float64, far *fuzzEnd) {
	for _, d := range e.m.Flush(now, nil) {
		far.inbox = append(far.inbox, d)
	}
	if inf := math.IsInf(e.m.Deadline(), 1); inf != (e.m.Outstanding() == 0) {
		t.Fatalf("%d frames outstanding but deadline %v", e.m.Outstanding(), e.m.Deadline())
	}
}

// FuzzARQ decodes its input into an interleaving of Send, Handle and Tick
// on two machines joined by a lane that drops, duplicates and reorders as
// the input says, plus hostile frames — arbitrary bytes, SACKs with any
// cumulative ack and bitmap, data at any sequence number — fed to a third
// machine. Nothing may panic; the window never exceeds Window; a deadline
// is set exactly when frames are in flight; and once the lane turns
// lossless each side delivers exactly the frames the other sent, in order,
// once each.
func FuzzARQ(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 3, 0, 3, 0, 6})
	f.Add([]byte{0, 1, 0, 1, 2, 4, 0, 5, 1, 3, 2, 6, 6, 2, 3, 1})
	f.Add([]byte{7, 0xff, 0xff, 0xff, 0xfe, 3, 0x81, 0, 7, 7, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, in []byte) {
		cfg := ARQConfig{RTO: 0.01, MaxRTO: 0.08, Window: 8, MTU: 2 * (wire.HeaderBytes + 4 + wire.TrailerBytes), ReorderCap: 16}
		ends := [2]*fuzzEnd{{m: NewARQMachine(cfg)}, {m: NewARQMachine(cfg)}}
		hostile := NewARQMachine(cfg)
		for i := 0; i < 4; i++ {
			_ = hostile.Send(wire.NewHello(graph.NodeID(i)))
		}
		hostile.Flush(0, nil)
		now := 0.0
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		for len(in) > 0 {
			op := next()
			e, far := ends[op>>7], ends[1-op>>7]
			switch op & 7 {
			case 0, 1: // send
				switch err := e.m.Send(wire.NewHello(graph.NodeID(e.sent))); err {
				case nil:
					e.sent++
				case ErrWindowFull:
				default:
					t.Fatal(err)
				}
			case 2: // flush onto the lane
				e.flush(t, now, far)
			case 3, 4, 5: // deliver, drop or duplicate one datagram in flight
				if len(e.inbox) == 0 {
					break
				}
				i := int(next()) % len(e.inbox)
				d := e.inbox[i]
				if op&7 != 5 {
					e.inbox = append(e.inbox[:i], e.inbox[i+1:]...)
				}
				if op&7 != 4 {
					e.take(t, now, d, far)
				}
			case 6: // time passes
				now += float64(next()) * 0.001
				e.m.Tick(now)
				far.m.Tick(now)
			case 7: // hostile frames
				n := int(next()) % 64
				raw := in[:min(n, len(in))]
				in = in[len(raw):]
				hostile.Handle(now, raw)
				if len(raw) >= 4 {
					cum := binary.BigEndian.Uint32(raw)
					bm := raw[4:min(len(raw), 4+wire.MaxSackBytes)]
					for len(bm) > 0 && bm[len(bm)-1] == 0 {
						bm = bm[:len(bm)-1]
					}
					for _, fr := range []*wire.Frame{wire.NewSack(cum, bm), {Type: wire.TypeHeartbeat, Seq: cum}} {
						if d, err := fr.Encode(); err == nil {
							hostile.Handle(now, d)
						}
					}
				}
			}
			for _, x := range []*ARQ{ends[0].m, ends[1].m, hostile} {
				if x.Outstanding() > cfg.Window {
					t.Fatalf("%d frames outstanding, window %d", x.Outstanding(), cfg.Window)
				}
			}
		}
		// The lane turns lossless and in order: everything must arrive.
		for round := 0; ; round++ {
			for i, e := range ends {
				e.flush(t, now, ends[1-i])
			}
			for i, e := range ends {
				for len(e.inbox) > 0 {
					d := e.inbox[0]
					e.inbox = e.inbox[1:]
					e.take(t, now, d, ends[1-i])
				}
			}
			if ends[0].seen == ends[1].sent && ends[1].seen == ends[0].sent &&
				ends[0].m.Outstanding() == 0 && ends[1].m.Outstanding() == 0 {
				return
			}
			if round == 1000 {
				t.Fatalf("no drain: delivered %d/%d and %d/%d, outstanding %d and %d",
					ends[1].seen, ends[0].sent, ends[0].seen, ends[1].sent, ends[0].m.Outstanding(), ends[1].m.Outstanding())
			}
			now += cfg.MaxRTO
			ends[0].m.Tick(now)
			ends[1].m.Tick(now)
		}
	})
}
