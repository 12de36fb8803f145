package lsu

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"minroute/internal/graph"
	"minroute/internal/rng"
)

func TestRoundTrip(t *testing.T) {
	m := &Msg{
		From: 7,
		Ack:  true,
		Entries: []Entry{
			{Op: OpAdd, Head: 1, Tail: 2, Cost: 0.0125},
			{Op: OpChange, Head: 2, Tail: 1, Cost: 3.5},
			{Op: OpDelete, Head: 3, Tail: 4},
		},
	}
	buf, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != m.WireBytes() {
		t.Fatalf("encoded %d bytes, WireBytes says %d", len(buf), m.WireBytes())
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", m, got)
	}
}

// TestUnmarshalIntoReusesStorage decodes a sequence of messages — the
// largest first, then a smaller one, a pure ACK and a corrupt buffer — into
// one kept message: each decoded message equals Unmarshal's, and once the
// entry storage is large enough it is the one every message is decoded
// into.
func TestUnmarshalIntoReusesStorage(t *testing.T) {
	big := &Msg{From: 3, Entries: []Entry{
		{Op: OpAdd, Head: 1, Tail: 2, Cost: 0.5},
		{Op: OpChange, Head: 2, Tail: 4, Cost: 1.25},
		{Op: OpDelete, Head: 4, Tail: 5},
	}}
	small := &Msg{From: 9, Ack: true, Entries: []Entry{{Op: OpChange, Head: 7, Tail: 8, Cost: 2}}}
	ack := &Msg{From: 4, Ack: true}
	var kept Msg
	var storage *Entry
	for _, m := range []*Msg{big, small, ack, big} {
		buf, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		want, err := Unmarshal(buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := UnmarshalInto(&kept, buf); err != nil {
			t.Fatal(err)
		}
		if kept.From != want.From || kept.Ack != want.Ack || !slices.Equal(kept.Entries, want.Entries) {
			t.Fatalf("decoded %+v into the kept message, Unmarshal says %+v", kept, *want)
		}
		if storage == nil {
			storage = &kept.Entries[:1][0]
		} else if &kept.Entries[:1][0] != storage {
			t.Fatalf("decoding %+v replaced the entry storage", *m)
		}
	}
	if err := UnmarshalInto(&kept, []byte{0, 0, 0, 1, 0x80, 0, 0}); err == nil {
		t.Fatal("corrupt flags decoded without error")
	}
}

func TestPureAck(t *testing.T) {
	m := &Msg{From: 1, Ack: true}
	if !m.IsPureAck() {
		t.Fatal("empty ack not pure")
	}
	m2 := &Msg{From: 1, Ack: true, Entries: []Entry{{Op: OpAdd, Head: 0, Tail: 1, Cost: 1}}}
	if m2.IsPureAck() {
		t.Fatal("ack with entries reported pure")
	}
	buf, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsPureAck() || got.From != 1 {
		t.Fatalf("pure ack mangled: %+v", got)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := map[string][]byte{
		"short":       {1, 2, 3},
		"bad flags":   {0, 0, 0, 1, 0xFF, 0, 0},
		"bad length":  {0, 0, 0, 1, 0, 0, 5},
		"bad op":      append([]byte{0, 0, 0, 1, 0, 0, 1}, make([]byte, 17)...),
		"nan cost":    nanMsg(t),
		"neg cost":    negMsg(t),
		"truncated":   append([]byte{0, 0, 0, 1, 0, 0, 1}, make([]byte, 5)...),
		"extra bytes": {0, 0, 0, 1, 0, 0, 0, 9, 9},
	}
	for name, buf := range cases {
		if _, err := Unmarshal(buf); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func nanMsg(t *testing.T) []byte {
	t.Helper()
	m := &Msg{From: 1, Entries: []Entry{{Op: OpAdd, Head: 0, Tail: 1, Cost: 1}}}
	buf, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the cost with NaN.
	nan := math.Float64bits(math.NaN())
	for i := 0; i < 8; i++ {
		buf[len(buf)-8+i] = byte(nan >> (56 - 8*i))
	}
	return buf
}

func negMsg(t *testing.T) []byte {
	t.Helper()
	m := &Msg{From: 1, Entries: []Entry{{Op: OpAdd, Head: 0, Tail: 1, Cost: 1}}}
	buf, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	neg := math.Float64bits(-2.0)
	for i := 0; i < 8; i++ {
		buf[len(buf)-8+i] = byte(neg >> (56 - 8*i))
	}
	return buf
}

func TestMarshalRejectsInvalidOp(t *testing.T) {
	m := &Msg{From: 1, Entries: []Entry{{Op: 0, Head: 0, Tail: 1}}}
	if _, err := m.Marshal(); err == nil {
		t.Fatal("invalid op accepted")
	}
}

func TestDeleteCostIgnoredRoundTrip(t *testing.T) {
	// Delete entries may carry any cost bits; decoding must not reject them.
	m := &Msg{From: 1, Entries: []Entry{{Op: OpDelete, Head: 5, Tail: 6, Cost: math.Inf(1)}}}
	buf, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entries[0].Op != OpDelete || got.Entries[0].Head != 5 {
		t.Fatalf("delete entry mangled: %+v", got.Entries[0])
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{OpAdd: "add", OpChange: "change", OpDelete: "delete", 9: "op(9)"} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	check := func(seed uint64, from uint16, ack bool, n8 uint8) bool {
		r := rng.New(seed)
		m := &Msg{From: graph.NodeID(from), Ack: ack}
		n := int(n8 % 20)
		for i := 0; i < n; i++ {
			op := Op(r.Intn(3) + 1)
			e := Entry{
				Op:   op,
				Head: graph.NodeID(r.Intn(1000)),
				Tail: graph.NodeID(r.Intn(1000)),
			}
			if op != OpDelete {
				e.Cost = r.Float64() * 100
			}
			m.Entries = append(m.Entries, e)
		}
		buf, err := m.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyUnmarshalNeverPanics(t *testing.T) {
	check := func(buf []byte) bool {
		_, _ = Unmarshal(buf) // must not panic
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshal(b *testing.B) {
	m := &Msg{From: 3, Entries: make([]Entry, 20)}
	for i := range m.Entries {
		m.Entries[i] = Entry{Op: OpAdd, Head: graph.NodeID(i), Tail: graph.NodeID(i + 1), Cost: 1.5}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	m := &Msg{From: 3, Entries: make([]Entry, 20)}
	for i := range m.Entries {
		m.Entries[i] = Entry{Op: OpAdd, Head: graph.NodeID(i), Tail: graph.NodeID(i + 1), Cost: 1.5}
	}
	buf, _ := m.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}
