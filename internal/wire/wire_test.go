package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"

	"minroute/internal/graph"
	"minroute/internal/lsu"
)

func testLSU(t *testing.T) *lsu.Msg {
	t.Helper()
	return &lsu.Msg{From: 7, Ack: true, Entries: []lsu.Entry{
		{Op: lsu.OpAdd, Head: 1, Tail: 2, Cost: 0.25},
		{Op: lsu.OpChange, Head: 2, Tail: 3, Cost: 1.5},
		{Op: lsu.OpDelete, Head: 3, Tail: 4},
	}}
}

func allFrames(t *testing.T) []*Frame {
	t.Helper()
	f, err := NewLSU(testLSU(t))
	if err != nil {
		t.Fatal(err)
	}
	f.Seq = 42
	return []*Frame{
		NewHello(3),
		NewHeartbeat(),
		NewBye(),
		f,
		NewSack(99, nil),
	}
}

func TestRoundTrip(t *testing.T) {
	for _, f := range allFrames(t) {
		buf, err := f.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", f.Type, err)
		}
		if len(buf) != f.EncodedBytes() {
			t.Fatalf("%s: encoded %d bytes, EncodedBytes says %d", f.Type, len(buf), f.EncodedBytes())
		}
		g, err := Decode(buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", f.Type, err)
		}
		if g.Type != f.Type || g.Seq != f.Seq || !bytes.Equal(g.Payload, f.Payload) {
			t.Fatalf("%s: round trip changed frame: %+v vs %+v", f.Type, f, g)
		}
		again, err := g.Encode()
		if err != nil {
			t.Fatalf("%s: re-encode: %v", f.Type, err)
		}
		if !bytes.Equal(buf, again) {
			t.Fatalf("%s: re-encode not canonical", f.Type)
		}
	}
}

func TestStreamFraming(t *testing.T) {
	frames := allFrames(t)
	var stream bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&stream, f); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(stream.Bytes())
	for i, want := range frames {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Seq != want.Seq || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d changed: %+v vs %+v", i, want, got)
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

func TestReadFrameTruncation(t *testing.T) {
	buf, err := NewHello(5).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(buf); cut++ {
		_, err := ReadFrame(bytes.NewReader(buf[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
	}
}

func TestDecodeRejections(t *testing.T) {
	lf, err := NewLSU(testLSU(t))
	if err != nil {
		t.Fatal(err)
	}
	good, err := lf.Encode()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mutate(b)
		return b
	}
	cases := []struct {
		name string
		buf  []byte
		want string
	}{
		{"empty", nil, "short frame"},
		{"short", good[:HeaderBytes], "short frame"},
		{"magic", corrupt(func(b []byte) { b[0] = 'X' }), "bad magic"},
		{"version", corrupt(func(b []byte) { b[2] = 9 }), "version"},
		{"crc-flip", corrupt(func(b []byte) { b[HeaderBytes] ^= 0x40 }), "CRC"},
		{"trailing", append(append([]byte(nil), good...), 0), "trailing"},
		{"len-overflow", corrupt(func(b []byte) {
			binary.BigEndian.PutUint32(b[8:12], MaxPayload+1)
		}), "exceeds limit"},
		{"len-truncated", corrupt(func(b []byte) {
			binary.BigEndian.PutUint32(b[8:12], uint32(len(good)))
		}), "truncated"},
	}
	for _, tc := range cases {
		if _, err := Decode(tc.buf); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// TestValidatePerType pins the payload-shape rules: a frame whose payload
// does not match its type is rejected by both encoder and decoder.
func TestValidatePerType(t *testing.T) {
	bad := []*Frame{
		{Type: TypeHello, Payload: []byte{1, 2, 3}},                // wrong size
		{Type: TypeHello, Payload: []byte{0xff, 0, 0, 0}},          // negative node
		{Type: TypeHeartbeat, Payload: []byte{1}},                  // non-empty
		{Type: TypeBye, Payload: []byte{1}},                        // non-empty
		{Type: Type(5)},                                            // reserved
		{Type: TypeLSU, Payload: []byte{0, 0}},                     // short lsu
		{Type: Type(0)},                                            // unknown
		{Type: Type(200)},                                          // unknown
		{Type: TypeHeartbeat, Payload: make([]byte, MaxPayload+1)}, // oversized
	}
	for _, f := range bad {
		if _, err := f.Encode(); err == nil {
			t.Errorf("encode accepted invalid frame %s/%d bytes", f.Type, len(f.Payload))
		}
	}
	// A hand-built buffer with a valid CRC but an invalid type/payload pair
	// must still be rejected by Decode.
	if _, err := Decode(rawFrame(TypeHeartbeat, 0, []byte{0xAB})); err == nil || !strings.Contains(err.Error(), "empty payload") {
		t.Errorf("decode accepted heartbeat with payload: %v", err)
	}
	// Code 5, the retired cumulative ACK, decodes like any unknown type.
	if _, err := Decode(rawFrame(Type(5), 9, nil)); err == nil || !strings.Contains(err.Error(), "unknown frame type 5") {
		t.Errorf("decode of a type-5 frame: %v, want unknown frame type", err)
	}
}

// rawFrame builds a frame's bytes with a valid CRC and no validation, so
// a test can hand Decode what no encoder would produce.
func rawFrame(t Type, seq uint32, payload []byte) []byte {
	raw := appendHeader(nil, t, seq, len(payload))
	raw = append(raw, payload...)
	return appendCRC(raw, 0)
}

func TestHelpers(t *testing.T) {
	id, err := HelloNode(NewHello(12))
	if err != nil || id != 12 {
		t.Fatalf("HelloNode = %d, %v", id, err)
	}
	if _, err := HelloNode(NewBye()); err == nil {
		t.Fatal("HelloNode accepted a bye frame")
	}
	m := testLSU(t)
	f, err := NewLSU(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LSUMsg(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != m.From || got.Ack != m.Ack || len(got.Entries) != len(m.Entries) {
		t.Fatalf("LSU round trip changed message: %+v vs %+v", m, got)
	}
	if _, err := LSUMsg(NewHeartbeat()); err == nil {
		t.Fatal("LSUMsg accepted a heartbeat")
	}
	if NewSack(7, nil).Seq != 7 {
		t.Fatal("NewSack did not store the cumulative seq")
	}
	if TypeSack != 6 || TypeData != 7 { // 5 stays reserved
		t.Fatalf("type codes moved: sack %d, data %d", TypeSack, TypeData)
	}
	if s := TypeHello.String(); s != "hello" {
		t.Fatalf("TypeHello.String() = %q", s)
	}
	if s := Type(77).String(); !strings.Contains(s, "77") {
		t.Fatalf("unknown type String() = %q", s)
	}
	if id, err := HelloNode(&Frame{Type: TypeHello}); err == nil {
		t.Fatalf("HelloNode accepted empty hello, id %d", id)
	}
}

func TestHelloNodeRange(t *testing.T) {
	for _, id := range []graph.NodeID{0, 1, 1 << 20} {
		got, err := HelloNode(NewHello(id))
		if err != nil || got != id {
			t.Fatalf("hello(%d) round trip = %d, %v", id, got, err)
		}
	}
}
