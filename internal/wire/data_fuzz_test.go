package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"minroute/internal/graph"
)

// FuzzDataFrame fuzzes the data-packet payload codec directly (beneath
// the frame envelope, which FuzzFrameRoundTrip already covers): the
// decoder must be total over arbitrary bytes, and every payload it
// accepts must re-encode to the identical bytes — the canonical round
// trip that keeps forwarders from mutating packets they merely relay.
// The same bytes, read as packet fields without validation, pin the two
// encoders to one another: AppendData refuses exactly what NewData
// refuses and otherwise writes the bytes NewData followed by Encode does.
func FuzzDataFrame(f *testing.F) {
	seeds := []DataPacket{
		{Src: 0, Dst: 1, TTL: 32, FlowID: 1, SizeBits: 4096},
		{Src: 5, Dst: 2, TTL: 1, Hops: 31, FlowID: 0xffff_ffff_ffff_ffff, SentAt: 123.456, Accum: 0.031, SizeBits: 1},
		{Src: 9, Dst: 9, TTL: 8, FlowID: 0x42, SentAt: 0.001, Body: []byte("hello, mesh")},
		{Src: 25, Dst: 0, TTL: 64, Hops: 3, FlowID: 7, SentAt: 1e6, Accum: 2.5, SizeBits: 65535},
	}
	for i := range seeds {
		f.Add(AppendDataPayload(nil, &seeds[i]))
	}
	f.Add([]byte{})
	f.Add(make([]byte, DataHeaderBytes-1))
	f.Add(make([]byte, DataHeaderBytes+3))
	f.Fuzz(func(t *testing.T, payload []byte) {
		raw := rawDataPacket(payload)
		fr, errNew := NewData(&raw)
		enc, errApp := AppendData(nil, &raw)
		if (errNew == nil) != (errApp == nil) {
			t.Fatalf("encoders disagree on %+v: NewData %v, AppendData %v", raw, errNew, errApp)
		}
		if errNew == nil {
			want, err := fr.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, want) {
				t.Fatalf("AppendData differs from NewData+Encode:\n got  %x\n want %x", enc, want)
			}
		}

		var p DataPacket
		if err := DecodeDataPacket(&p, payload); err != nil {
			return
		}
		out := AppendDataPayload(nil, &p)
		if !bytes.Equal(payload, out) {
			t.Fatalf("round trip not canonical:\n in  %x\n out %x", payload, out)
		}
		// An accepted payload must also frame and re-decode cleanly.
		buf, err := AppendData(nil, &p)
		if err != nil {
			t.Fatalf("accepted payload refused by AppendData: %v", err)
		}
		g, err := Decode(buf)
		if err != nil {
			t.Fatalf("framed data packet refused by Decode: %v", err)
		}
		if g.Type != TypeData || DecodeDataPacket(&p, g.Payload) != nil {
			t.Fatalf("accepted data frame with undecodable payload (%s)", g.Type)
		}
	})
}

// rawDataPacket reads packet fields from b without validating them, so
// negative node IDs and non-finite or negative times reach the encoders.
// Bytes past the header are the body; a short b leaves later fields zero.
func rawDataPacket(b []byte) DataPacket {
	var hdr [DataHeaderBytes]byte
	copy(hdr[:], b)
	p := DataPacket{
		Src:      graph.NodeID(binary.BigEndian.Uint32(hdr[0:4])),
		Dst:      graph.NodeID(binary.BigEndian.Uint32(hdr[4:8])),
		TTL:      hdr[8],
		Hops:     hdr[9],
		FlowID:   binary.BigEndian.Uint64(hdr[10:18]),
		SentAt:   math.Float64frombits(binary.BigEndian.Uint64(hdr[18:26])),
		Accum:    math.Float64frombits(binary.BigEndian.Uint64(hdr[26:34])),
		SizeBits: binary.BigEndian.Uint32(hdr[34:38]),
	}
	if len(b) > DataHeaderBytes {
		p.Body = b[DataHeaderBytes:]
	}
	return p
}
