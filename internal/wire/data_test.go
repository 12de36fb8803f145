package wire

import (
	"bytes"
	"math"
	"testing"
)

// TestDataRoundTrip pins the DataPacket codec: every field survives
// encode→decode, and the framed form survives the full frame round trip.
func TestDataRoundTrip(t *testing.T) {
	p := DataPacket{
		Src: 3, Dst: 9, TTL: 32, Hops: 4, FlowID: 0x1234_5678_9abc_def0,
		SentAt: 12.25, Accum: 0.00375, SizeBits: 4096,
		Body: []byte("payload"),
	}
	f, err := NewData(&p)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Type != TypeData {
		t.Fatalf("decoded a %s frame", g.Type)
	}
	var got DataPacket
	if err := DecodeDataPacket(&got, g.Payload); err != nil {
		t.Fatal(err)
	}
	if got.Src != p.Src || got.Dst != p.Dst || got.TTL != p.TTL || got.Hops != p.Hops {
		t.Fatalf("header mismatch: got %+v want %+v", got, p)
	}
	if got.FlowID != p.FlowID || got.SentAt != p.SentAt || got.Accum != p.Accum || got.SizeBits != p.SizeBits {
		t.Fatalf("field mismatch: got %+v want %+v", got, p)
	}
	if !bytes.Equal(got.Body, p.Body) {
		t.Fatalf("body mismatch: got %q want %q", got.Body, p.Body)
	}
}

// TestDataValidation rejects malformed packets on both the encode and the
// decode side, keeping the format closed under round trips.
func TestDataValidation(t *testing.T) {
	cases := []struct {
		name string
		p    DataPacket
	}{
		{"negative sent_at", DataPacket{Src: 0, Dst: 1, TTL: 8, SentAt: -1}},
		{"nan accum", DataPacket{Src: 0, Dst: 1, TTL: 8, Accum: math.NaN()}},
		{"inf sent_at", DataPacket{Src: 0, Dst: 1, TTL: 8, SentAt: math.Inf(1)}},
		{"oversized body", DataPacket{Src: 0, Dst: 1, TTL: 8, Body: make([]byte, MaxDataBody+1)}},
	}
	for _, tc := range cases {
		if _, err := NewData(&tc.p); err == nil {
			t.Errorf("%s: NewData accepted invalid packet", tc.name)
		}
		if _, err := AppendData(nil, &tc.p); err == nil {
			t.Errorf("%s: AppendData accepted invalid packet", tc.name)
		}
	}
	// Decode-side: short header, negative node IDs.
	var p DataPacket
	if err := DecodeDataPacket(&p, make([]byte, DataHeaderBytes-1)); err == nil {
		t.Error("short payload accepted")
	}
	ok, err := NewData(&DataPacket{Src: 1, Dst: 2, TTL: 4})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), ok.Payload...)
	bad[0] = 0x80 // sign bit of src
	if err := DecodeDataPacket(&p, bad); err == nil {
		t.Error("negative src accepted")
	}
}

// TestDataFrameOutsideARQ asserts a data frame carries Seq 0 — the
// fire-and-forget contract: the ARQ never sequences the data plane.
func TestDataFrameOutsideARQ(t *testing.T) {
	f, err := NewData(&DataPacket{Src: 0, Dst: 1, TTL: 16})
	if err != nil {
		t.Fatal(err)
	}
	if f.Seq != 0 {
		t.Fatalf("data frame carries ARQ seq %d", f.Seq)
	}
}
