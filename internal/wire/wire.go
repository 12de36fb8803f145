// Package wire defines the live peering frame format — the versioned,
// length-prefixed, CRC-checked envelope that carries protocol messages
// between real MPDA routers over a byte stream (TCP) or datagrams (UDP).
//
// The simulator's protonet harness delivers *lsu.Msg values by pointer and
// simply assumes a reliable, in-order, exactly-once channel. A live peer
// gets none of that for free: it needs framing to find message boundaries
// in a TCP stream, integrity checking to reject corrupt datagrams, session
// messages to establish and monitor neighbor liveness, and sequence numbers
// for the UDP ARQ layer that rebuilds the reliable channel. This package is
// that deployable envelope; internal/transport provides the channels and
// internal/node the session logic.
//
// Frame layout (big endian):
//
//	offset size field
//	0      2    magic 0x4D52 ("MR")
//	2      1    version (1)
//	3      1    type (Hello, Heartbeat, Bye, LSU, Ack, Sack)
//	4      4    seq — ARQ sequence number (0 outside the ARQ layer)
//	8      4    payload length (bounded by MaxPayload)
//	12     n    payload
//	12+n   4    CRC-32C (Castagnoli) over bytes [0, 12+n)
//
// Payload per type: Hello carries the 4-byte sender node ID; LSU carries
// one lsu.Msg in its existing binary encoding; Heartbeat, Bye, and Ack are
// empty (Ack's information is its cumulative seq); Sack carries the
// selective-repeat out-of-order bitmap (cumulative ack in seq, bit i of
// the payload acknowledging seq cum+1+i, trailing zero bytes trimmed);
// Data carries one data-plane packet (DataPacket: TTL, flow ID, origin
// timestamp, accumulated emulated latency) outside the ARQ entirely.
// Frames may be coalesced back to back inside one datagram; DecodeSome
// iterates them. Decode validates the payload against its type, so an
// accepted frame always re-encodes to the identical bytes (the canonical
// round trip FuzzFrameRoundTrip pins).
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"minroute/internal/graph"
	"minroute/internal/lsu"
)

// Type discriminates the frame kinds.
type Type uint8

// Frame types. Hello opens a peer session and names the sender; Heartbeat
// proves liveness between LSUs; Bye announces a graceful shutdown so the
// peer can take the link down immediately instead of waiting out the dead
// timer; LSU carries one link-state update; Ack is the legacy go-back-N
// cumulative acknowledgment (distinct from the protocol-level ACK flag
// inside an LSU payload, which acknowledges MPDA flooding); Sack is the
// selective-repeat acknowledgment — cumulative ack in Seq plus a bitmap of
// out-of-order receptions in the payload.
const (
	TypeHello Type = iota + 1
	TypeHeartbeat
	TypeBye
	TypeLSU
	TypeAck
	TypeSack
	// TypeData carries one data-plane packet: fire-and-forget (never
	// sequenced by the ARQ; Seq stays 0), forwarded hop by hop under the
	// phi tables. The payload is the fixed DataPacket header plus an
	// optional opaque body.
	TypeData
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeHeartbeat:
		return "heartbeat"
	case TypeBye:
		return "bye"
	case TypeLSU:
		return "lsu"
	case TypeAck:
		return "ack"
	case TypeSack:
		return "sack"
	case TypeData:
		return "data"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Wire-format constants.
const (
	// Magic marks the first two bytes of every frame.
	Magic uint16 = 0x4D52
	// Version is the only frame version this code speaks.
	Version = 1
	// HeaderBytes is the fixed header size before the payload.
	HeaderBytes = 12
	// TrailerBytes is the CRC suffix size.
	TrailerBytes = 4
	// MaxPayload bounds one frame's payload: an LSU at the lsu.MaxEntries
	// limit (65535 entries of 17 bytes plus the 7-byte header) fits with
	// room to spare, and a decoder can never be talked into a huge
	// allocation by a corrupt length field.
	MaxPayload = 1 << 21
	// MaxSackBytes bounds a Sack frame's bitmap payload: 512 bytes = 4096
	// selectively acknowledgeable sequence numbers past the cumulative ack,
	// matching the ARQ layer's default reorder-buffer bound.
	MaxSackBytes = 512
	// helloBytes is the exact Hello payload size (the sender node ID).
	helloBytes = 4
	// DataHeaderBytes is the fixed DataPacket header inside a Data
	// payload; any bytes past it are the opaque body.
	DataHeaderBytes = 38
	// MaxDataBody bounds a Data frame's body so header + body + envelope
	// always fits one transport datagram with room to spare.
	MaxDataBody = 32 << 10
)

// castagnoli is the CRC-32C table; crc32.MakeTable memoizes internally but
// computing it once keeps the hot path obvious.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame is one decoded frame. Payload is owned by the frame.
type Frame struct {
	Type Type
	// Seq is the ARQ sequence number: assigned by the UDP ARQ sender,
	// zero on transports that are already reliable and in Ack frames it
	// holds the cumulative acknowledgment.
	Seq     uint32
	Payload []byte
}

// EncodedBytes returns the encoded frame size.
func (f *Frame) EncodedBytes() int { return HeaderBytes + len(f.Payload) + TrailerBytes }

// AppendEncode appends the encoded frame to dst and returns the extended
// slice. It errors when the payload exceeds MaxPayload or the type or
// payload shape is invalid — the encoder refuses anything the decoder
// would reject, keeping the format closed under round trips.
func (f *Frame) AppendEncode(dst []byte) ([]byte, error) {
	if err := validate(f.Type, f.Payload); err != nil {
		return nil, err
	}
	start := len(dst)
	dst = appendHeader(dst, f.Type, f.Seq, len(f.Payload))
	dst = append(dst, f.Payload...)
	return appendCRC(dst, start), nil
}

// appendHeader appends the fixed frame header for a payload of plen bytes.
func appendHeader(dst []byte, t Type, seq uint32, plen int) []byte {
	var hdr [HeaderBytes]byte
	binary.BigEndian.PutUint16(hdr[0:2], Magic)
	hdr[2] = Version
	hdr[3] = byte(t)
	binary.BigEndian.PutUint32(hdr[4:8], seq)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(plen))
	return append(dst, hdr[:]...)
}

// appendCRC appends the CRC trailer over the frame that starts at
// dst[start:].
func appendCRC(dst []byte, start int) []byte {
	var crc [TrailerBytes]byte
	binary.BigEndian.PutUint32(crc[:], crc32.Checksum(dst[start:], castagnoli))
	return append(dst, crc[:]...)
}

// Encode returns the encoded frame.
func (f *Frame) Encode() ([]byte, error) {
	return f.AppendEncode(make([]byte, 0, f.EncodedBytes()))
}

// validate checks the type/payload pairing shared by Encode and Decode.
func validate(t Type, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("wire: payload %d exceeds limit %d", len(payload), MaxPayload)
	}
	switch t {
	case TypeHello:
		if len(payload) != helloBytes {
			return fmt.Errorf("wire: hello payload must be %d bytes, got %d", helloBytes, len(payload))
		}
		if int32(binary.BigEndian.Uint32(payload)) < 0 {
			return fmt.Errorf("wire: hello names negative node %d", int32(binary.BigEndian.Uint32(payload)))
		}
	case TypeHeartbeat, TypeBye, TypeAck:
		if len(payload) != 0 {
			return fmt.Errorf("wire: %s frame must have empty payload, got %d bytes", t, len(payload))
		}
	case TypeLSU:
		if err := lsu.Validate(payload); err != nil {
			return fmt.Errorf("wire: lsu payload: %w", err)
		}
	case TypeSack:
		if len(payload) > MaxSackBytes {
			return fmt.Errorf("wire: sack bitmap %d exceeds limit %d", len(payload), MaxSackBytes)
		}
		if len(payload) > 0 && payload[len(payload)-1] == 0 {
			// Canonical form: trailing zero bytes carry no information, so a
			// valid encoder always trims them — keeping the format closed
			// under the round trip the fuzzer pins.
			return fmt.Errorf("wire: sack bitmap has trailing zero byte")
		}
	case TypeData:
		if err := validateData(payload); err != nil {
			return fmt.Errorf("wire: data payload: %w", err)
		}
	default:
		return fmt.Errorf("wire: unknown frame type %d", uint8(t))
	}
	return nil
}

// Decode parses one frame occupying exactly buf — the datagram shape. The
// returned frame's payload aliases buf; callers that retain the frame past
// the buffer's reuse must copy. Every length is bounds-checked before use
// and the CRC is verified before any payload validation, so arbitrary
// bytes can never panic the decoder.
func Decode(buf []byte) (*Frame, error) {
	f := new(Frame)
	if err := DecodeInto(f, buf); err != nil {
		return nil, err
	}
	return f, nil
}

// DecodeInto is the scratch-reuse form of Decode: it parses one frame
// occupying exactly buf into the caller-provided f, allocating nothing.
// The frame's payload aliases buf.
func DecodeInto(f *Frame, buf []byte) error {
	n, err := DecodeSome(f, buf)
	if err != nil {
		return err
	}
	if n != len(buf) {
		return fmt.Errorf("wire: %d trailing bytes after frame", len(buf)-n)
	}
	return nil
}

// DecodeSome parses the first frame in buf into f, returning the number of
// bytes consumed — the iteration primitive for coalesced datagrams, which
// carry several frames back to back:
//
//	for len(buf) > 0 {
//		n, err := wire.DecodeSome(&f, buf)
//		if err != nil { break }
//		handle(&f); buf = buf[n:]
//	}
//
// Like DecodeInto it allocates nothing; the payload aliases buf.
func DecodeSome(f *Frame, buf []byte) (int, error) {
	if len(buf) < HeaderBytes+TrailerBytes {
		return 0, fmt.Errorf("wire: short frame (%d bytes)", len(buf))
	}
	if m := binary.BigEndian.Uint16(buf[0:2]); m != Magic {
		return 0, fmt.Errorf("wire: bad magic %#04x", m)
	}
	if buf[2] != Version {
		return 0, fmt.Errorf("wire: unsupported version %d", buf[2])
	}
	plen := binary.BigEndian.Uint32(buf[8:12])
	if plen > MaxPayload {
		return 0, fmt.Errorf("wire: payload length %d exceeds limit %d", plen, MaxPayload)
	}
	total := HeaderBytes + int(plen) + TrailerBytes
	if len(buf) < total {
		return 0, fmt.Errorf("wire: truncated frame: have %d of %d bytes", len(buf), total)
	}
	body := buf[:total-TrailerBytes]
	want := binary.BigEndian.Uint32(buf[total-TrailerBytes : total])
	if got := crc32.Checksum(body, castagnoli); got != want {
		return 0, fmt.Errorf("wire: CRC mismatch: computed %#08x, frame says %#08x", got, want)
	}
	f.Type = Type(buf[3])
	f.Seq = binary.BigEndian.Uint32(buf[4:8])
	f.Payload = body[HeaderBytes:]
	if len(f.Payload) == 0 {
		f.Payload = nil
	}
	if err := validate(f.Type, f.Payload); err != nil {
		return 0, err
	}
	return total, nil
}

// WriteFrame encodes f to w in one Write call (so a frame is never
// interleaved when callers serialize on the writer).
func WriteFrame(w io.Writer, f *Frame) error {
	buf, err := f.Encode()
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadFrame reads exactly one frame from a byte stream. Stream corruption
// (bad magic, bad CRC, oversized length) is returned as an error; the
// stream should be torn down, because framing is lost. The returned
// frame's payload is freshly allocated.
func ReadFrame(r io.Reader) (*Frame, error) {
	var hdr [HeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	plen := binary.BigEndian.Uint32(hdr[8:12])
	if m := binary.BigEndian.Uint16(hdr[0:2]); m != Magic {
		return nil, fmt.Errorf("wire: bad magic %#04x", m)
	}
	if plen > MaxPayload {
		return nil, fmt.Errorf("wire: payload length %d exceeds limit %d", plen, MaxPayload)
	}
	buf := make([]byte, HeaderBytes+int(plen)+TrailerBytes)
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[HeaderBytes:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return Decode(buf)
}

// NewHello builds a Hello frame naming the sender.
func NewHello(id graph.NodeID) *Frame {
	p := make([]byte, helloBytes)
	binary.BigEndian.PutUint32(p, uint32(id))
	return &Frame{Type: TypeHello, Payload: p}
}

// HelloNode extracts the sender node ID from a Hello frame.
func HelloNode(f *Frame) (graph.NodeID, error) {
	if f.Type != TypeHello || len(f.Payload) != helloBytes {
		return graph.None, fmt.Errorf("wire: not a hello frame (%s, %d bytes)", f.Type, len(f.Payload))
	}
	return graph.NodeID(binary.BigEndian.Uint32(f.Payload)), nil
}

// NewLSU wraps one link-state update.
func NewLSU(m *lsu.Msg) (*Frame, error) {
	p, err := m.Marshal()
	if err != nil {
		return nil, err
	}
	return &Frame{Type: TypeLSU, Payload: p}, nil
}

// LSUMsg decodes the link-state update carried by an LSU frame.
func LSUMsg(f *Frame) (*lsu.Msg, error) {
	if f.Type != TypeLSU {
		return nil, fmt.Errorf("wire: not an lsu frame (%s)", f.Type)
	}
	return lsu.Unmarshal(f.Payload)
}

// NewHeartbeat builds a liveness probe frame.
func NewHeartbeat() *Frame { return &Frame{Type: TypeHeartbeat} }

// NewBye builds a graceful-shutdown frame.
func NewBye() *Frame { return &Frame{Type: TypeBye} }

// NewAck builds a legacy cumulative acknowledgment for sequence cum.
func NewAck(cum uint32) *Frame { return &Frame{Type: TypeAck, Seq: cum} }

// NewSack builds a selective acknowledgment: cum is the cumulative ack
// (every sequence ≤ cum received), and bit i of the bitmap — bit i%8 of
// byte i/8 — reports out-of-order receipt of sequence cum+1+i. The bitmap
// must be canonical (no trailing zero byte) and is owned by the frame
// afterwards; nil means no out-of-order receptions.
func NewSack(cum uint32, bitmap []byte) *Frame {
	if len(bitmap) == 0 {
		bitmap = nil
	}
	return &Frame{Type: TypeSack, Seq: cum, Payload: bitmap}
}

// DataPacket is the header of one data-plane packet. The forwarding plane
// carries the packet's emulated size (SizeBits) instead of padding bytes,
// and charges each hop's link latency arithmetically into Accum: the
// delivery sink reads end-to-end delay as Accum plus the real clock span
// SentAt→now, which is what lets a loopback mesh cross-validate against
// the simulator's link model without real multi-millisecond sleeps.
//
// Header layout inside a Data payload (big endian, DataHeaderBytes total):
//
//	offset size field
//	0      4    src node ID
//	4      4    dst node ID
//	8      1    TTL (remaining hops; forwarders decrement and drop at 0)
//	9      1    hops taken so far
//	10     8    flow ID (the 5-tuple-hash stand-in driving path stickiness)
//	18     8    SentAt — origin clock seconds, float64 bits
//	26     8    Accum — accumulated emulated link latency seconds, float64 bits
//	34     4    SizeBits — emulated packet size in bits
//	38     n    opaque body (optional, bounded by MaxDataBody)
type DataPacket struct {
	Src, Dst graph.NodeID
	TTL      uint8
	Hops     uint8
	FlowID   uint64
	SentAt   float64
	Accum    float64
	SizeBits uint32
	// Body is the opaque application bytes; nil for the usual
	// measurement-traffic packets. Decoded bodies alias the frame buffer.
	Body []byte
}

// validateData checks a Data payload's shape and field sanity. Times must
// be finite and non-negative so every accepted packet yields a sane delay
// sample, and rejecting NaN keeps the format closed under the canonical
// re-encode round trip (NaN aside, float64 bits survive decode→encode
// bit-exactly).
func validateData(payload []byte) error {
	if len(payload) < DataHeaderBytes {
		return fmt.Errorf("header needs %d bytes, got %d", DataHeaderBytes, len(payload))
	}
	if body := len(payload) - DataHeaderBytes; body > MaxDataBody {
		return fmt.Errorf("body %d exceeds limit %d", body, MaxDataBody)
	}
	if int32(binary.BigEndian.Uint32(payload[0:4])) < 0 {
		return fmt.Errorf("negative src node")
	}
	if int32(binary.BigEndian.Uint32(payload[4:8])) < 0 {
		return fmt.Errorf("negative dst node")
	}
	for _, f := range []struct {
		name string
		off  int
	}{{"sent_at", 18}, {"accum", 26}} {
		v := math.Float64frombits(binary.BigEndian.Uint64(payload[f.off : f.off+8]))
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("%s %g not a finite non-negative time", f.name, v)
		}
	}
	return nil
}

// AppendDataPayload appends p's encoded payload (header plus body) to dst.
func AppendDataPayload(dst []byte, p *DataPacket) []byte {
	var hdr [DataHeaderBytes]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(p.Src))
	binary.BigEndian.PutUint32(hdr[4:8], uint32(p.Dst))
	hdr[8] = p.TTL
	hdr[9] = p.Hops
	binary.BigEndian.PutUint64(hdr[10:18], p.FlowID)
	binary.BigEndian.PutUint64(hdr[18:26], math.Float64bits(p.SentAt))
	binary.BigEndian.PutUint64(hdr[26:34], math.Float64bits(p.Accum))
	binary.BigEndian.PutUint32(hdr[34:38], p.SizeBits)
	dst = append(dst, hdr[:]...)
	return append(dst, p.Body...)
}

// NewData wraps one data packet in a frame, validating it on the way in
// (so the encoder refuses anything a receiving forwarder would reject).
func NewData(p *DataPacket) (*Frame, error) {
	payload := AppendDataPayload(make([]byte, 0, DataHeaderBytes+len(p.Body)), p)
	if err := validate(TypeData, payload); err != nil {
		return nil, err
	}
	return &Frame{Type: TypeData, Payload: payload}, nil
}

// AppendData appends p as one whole encoded Data frame (header, payload,
// CRC) to dst and returns the extended slice — the bytes NewData followed
// by Encode would produce, without the intermediate frame. It refuses what
// NewData refuses, returning nil, and allocates nothing when dst has room:
// the forwarder's per-packet encoder.
func AppendData(dst []byte, p *DataPacket) ([]byte, error) {
	start := len(dst)
	dst = appendHeader(dst, TypeData, 0, DataHeaderBytes+len(p.Body))
	dst = AppendDataPayload(dst, p)
	if err := validate(TypeData, dst[start+HeaderBytes:]); err != nil {
		return nil, err
	}
	return appendCRC(dst, start), nil
}

// DecodeDataPacket parses a Data payload into p without allocating; the
// body aliases the payload. Decode/DecodeSome already validated accepted
// frames, but the parse revalidates so it is safe on raw bytes too.
func DecodeDataPacket(p *DataPacket, payload []byte) error {
	if err := validateData(payload); err != nil {
		return fmt.Errorf("wire: data payload: %w", err)
	}
	p.Src = graph.NodeID(binary.BigEndian.Uint32(payload[0:4]))
	p.Dst = graph.NodeID(binary.BigEndian.Uint32(payload[4:8]))
	p.TTL = payload[8]
	p.Hops = payload[9]
	p.FlowID = binary.BigEndian.Uint64(payload[10:18])
	p.SentAt = math.Float64frombits(binary.BigEndian.Uint64(payload[18:26]))
	p.Accum = math.Float64frombits(binary.BigEndian.Uint64(payload[26:34]))
	p.SizeBits = binary.BigEndian.Uint32(payload[34:38])
	if body := payload[DataHeaderBytes:]; len(body) > 0 {
		p.Body = body
	} else {
		p.Body = nil
	}
	return nil
}
