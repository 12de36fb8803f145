package wire

import (
	"testing"

	"minroute/internal/graph"
	"minroute/internal/lsu"
)

// TestCodecAllocBudget is the codec-overhead guard wired into `make check`
// (codec-guard target): the live transport's per-frame costs are pinned so
// the hot path cannot silently regrow allocations.
//
//   - AppendEncode into a reused buffer: 0 allocs/op (the send path
//     encodes every frame into its window slot),
//   - DecodeInto with a reused Frame: 0 allocs/op (the receive path
//     decodes every datagram into scratch, payloads aliasing the
//     datagram buffer),
//   - Decode: ≤1 alloc/op (only the returned *Frame itself),
//   - AppendData into a reused buffer: 0 allocs/op (the forwarder encodes
//     every data packet it sends or relays into scratch it keeps).
//
// Like the telemetry guard, this test relies on testing.AllocsPerRun and
// must run without -race (alloc accounting is unreliable under the race
// detector), which is why the Makefile invokes it in a separate
// non-race target.
func TestCodecAllocBudget(t *testing.T) {
	m := &lsu.Msg{From: 5, Ack: true}
	for i := 0; i < 8; i++ {
		m.Entries = append(m.Entries, lsu.Entry{
			Op: lsu.OpChange, Head: graph.NodeID(i), Tail: graph.NodeID(i + 1), Cost: float64(i) * 0.125,
		})
	}
	f, err := NewLSU(m)
	if err != nil {
		t.Fatal(err)
	}
	f.Seq = 99
	wireBytes, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, 0, f.EncodedBytes())
	if n := testing.AllocsPerRun(200, func() {
		out, err := f.AppendEncode(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		buf = out[:0]
	}); n != 0 {
		t.Errorf("AppendEncode into reused buffer: %.1f allocs/op, want 0", n)
	}

	var g Frame
	if n := testing.AllocsPerRun(200, func() {
		if err := DecodeInto(&g, wireBytes); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeInto reused frame: %.1f allocs/op, want 0", n)
	}

	if n := testing.AllocsPerRun(200, func() {
		if _, err := Decode(wireBytes); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Decode: %.1f allocs/op, want <=1", n)
	}

	// The forwarder's per-packet encoder, into its reused buffer.
	pkt := &DataPacket{Src: 3, Dst: 7, TTL: 32, FlowID: 0xdeadbeef, SentAt: 1.5, Accum: 0.002, SizeBits: 8192}
	var data []byte
	if n := testing.AllocsPerRun(200, func() {
		out, err := AppendData(data[:0], pkt)
		if err != nil {
			t.Fatal(err)
		}
		data = out
	}); n != 0 {
		t.Errorf("AppendData into reused buffer: %.1f allocs/op, want 0", n)
	}

	// The coalesced-datagram walk must stay alloc-free per frame too.
	co := append(append([]byte(nil), wireBytes...), wireBytes...)
	if n := testing.AllocsPerRun(200, func() {
		rest := co
		for len(rest) > 0 {
			used, err := DecodeSome(&g, rest)
			if err != nil {
				t.Fatal(err)
			}
			rest = rest[used:]
		}
	}); n != 0 {
		t.Errorf("DecodeSome walk: %.1f allocs/op, want 0", n)
	}
}
