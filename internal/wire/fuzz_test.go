package wire

import (
	"bytes"
	"testing"

	"minroute/internal/lsu"
)

// FuzzFrameRoundTrip asserts the frame decoder never panics on arbitrary
// bytes and that every frame it accepts re-encodes to the identical wire
// bytes — the canonical round trip. Mirrors internal/lsu's FuzzUnmarshal:
// the decoder is the trust boundary between the network and the protocol,
// so it must be total over arbitrary input.
func FuzzFrameRoundTrip(f *testing.F) {
	seedMsg := &lsu.Msg{From: 3, Ack: true, Entries: []lsu.Entry{
		{Op: lsu.OpAdd, Head: 1, Tail: 2, Cost: 0.5},
		{Op: lsu.OpDelete, Head: 9, Tail: 8},
	}}
	lf, err := NewLSU(seedMsg)
	if err != nil {
		f.Fatal(err)
	}
	lf.Seq = 12345
	df, err := NewData(&DataPacket{
		Src: 2, Dst: 7, TTL: 31, Hops: 1, FlowID: 0xdeadbeef,
		SentAt: 1.5, Accum: 0.0025, SizeBits: 8192,
	})
	if err != nil {
		f.Fatal(err)
	}
	singles := []*Frame{
		NewHello(7), NewHeartbeat(), NewBye(), lf,
		NewSack(3, nil), NewSack(12345, []byte{0x01}),
		NewSack(9, []byte{0xff, 0x00, 0x80}),
		df,
	}
	for _, fr := range singles {
		buf, err := fr.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add(rawFrame(Type(5), 9, nil)) // the reserved type: must not decode
	// Coalesced multi-frame datagrams: the shape the selective-repeat ARQ
	// puts on the wire (a SACK leading a run of data frames).
	coalesced := []byte(nil)
	for _, fr := range []*Frame{NewSack(4, []byte{0x05}), NewHello(1), lf, NewHeartbeat()} {
		var err error
		if coalesced, err = fr.AppendEncode(coalesced); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(coalesced)
	f.Add(append(append([]byte(nil), coalesced...), 0x4D, 0x52, 1)) // truncated tail
	f.Add([]byte{})
	f.Add([]byte{0x4D, 0x52, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := Decode(data)
		if err == nil {
			out, err := fr.Encode()
			if err != nil {
				t.Fatalf("accepted frame failed to re-encode: %v", err)
			}
			if !bytes.Equal(data, out) {
				t.Fatalf("round trip not canonical:\n in  %x\n out %x", data, out)
			}
			// LSU payloads must decode into a well-formed message.
			if fr.Type == TypeLSU {
				if _, err := LSUMsg(fr); err != nil {
					t.Fatalf("accepted LSU frame with undecodable payload: %v", err)
				}
			}
		}
		// Coalesced walk: DecodeSome must be total over arbitrary input,
		// and every frame it accepts must re-encode to exactly the bytes
		// it consumed — the per-frame canonical round trip inside a
		// multi-frame datagram.
		rest := data
		for len(rest) > 0 {
			var g Frame
			used, err := DecodeSome(&g, rest)
			if err != nil {
				break
			}
			if used <= 0 || used > len(rest) {
				t.Fatalf("DecodeSome consumed %d of %d bytes", used, len(rest))
			}
			out, err := g.Encode()
			if err != nil {
				t.Fatalf("accepted coalesced frame failed to re-encode: %v", err)
			}
			if !bytes.Equal(rest[:used], out) {
				t.Fatalf("coalesced round trip not canonical:\n in  %x\n out %x", rest[:used], out)
			}
			rest = rest[used:]
		}
	})
}
