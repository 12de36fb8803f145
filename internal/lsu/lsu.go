// Package lsu defines the link-state update message — the unit of
// information exchanged between routers by PDA and MPDA — and its binary
// wire encoding.
//
// From the paper: "A router sends an LSU message containing one or more
// entries, with each entry specifying addition, deletion or change in cost
// of a link in the router's main topology table T. Each entry consists of
// link information in the form of a triplet [h, t, d] where h is the head,
// t is the tail, and d is the cost of the link h→t. An LSU message contains
// an acknowledgment (ACK) flag for acknowledging the receipt of an LSU
// message from a neighbor (used only by MPDA)."
package lsu

import (
	"encoding/binary"
	"fmt"
	"math"

	"minroute/internal/graph"
)

// Op is the kind of topology mutation an entry encodes.
type Op byte

// Entry operations.
const (
	OpAdd Op = iota + 1
	OpChange
	OpDelete
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpChange:
		return "change"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", byte(o))
	}
}

// Entry is one [h, t, d] triplet plus its operation.
type Entry struct {
	Op   Op
	Head graph.NodeID
	Tail graph.NodeID
	Cost float64 // ignored for OpDelete
}

// Msg is a link-state update message.
type Msg struct {
	// From is the sending router.
	From graph.NodeID
	// Ack acknowledges the last LSU received from the destination neighbor.
	Ack bool
	// Entries lists topology changes; empty together with Ack means a pure
	// acknowledgment.
	Entries []Entry
}

// IsPureAck reports whether the message carries no topology changes.
func (m *Msg) IsPureAck() bool { return m.Ack && len(m.Entries) == 0 }

// Wire-format constants. Header: from(4) flags(1) count(2); entry:
// op(1) head(4) tail(4) cost(8).
const (
	headerBytes = 7
	entryBytes  = 17
	flagAck     = 0x01
	// MaxEntries bounds one message; larger diffs are split by the caller.
	MaxEntries = math.MaxUint16
)

// WireBytes returns the encoded size in bytes; the simulator charges this
// (plus framing) against link capacity.
func (m *Msg) WireBytes() int { return headerBytes + entryBytes*len(m.Entries) }

// Marshal encodes the message.
func (m *Msg) Marshal() ([]byte, error) {
	if len(m.Entries) > MaxEntries {
		return nil, fmt.Errorf("lsu: %d entries exceed message limit", len(m.Entries))
	}
	buf := make([]byte, m.WireBytes())
	binary.BigEndian.PutUint32(buf[0:4], uint32(m.From))
	if m.Ack {
		buf[4] = flagAck
	}
	binary.BigEndian.PutUint16(buf[5:7], uint16(len(m.Entries)))
	off := headerBytes
	for _, e := range m.Entries {
		if e.Op < OpAdd || e.Op > OpDelete {
			return nil, fmt.Errorf("lsu: invalid op %d", e.Op)
		}
		buf[off] = byte(e.Op)
		binary.BigEndian.PutUint32(buf[off+1:off+5], uint32(e.Head))
		binary.BigEndian.PutUint32(buf[off+5:off+9], uint32(e.Tail))
		binary.BigEndian.PutUint64(buf[off+9:off+17], math.Float64bits(e.Cost))
		off += entryBytes
	}
	return buf, nil
}

// Validate checks that buf is a structurally valid encoded message without
// materializing it — the allocation-free twin of Unmarshal, used by the
// wire codec's hot path (a frame validator has no use for the decoded
// message, only for the yes/no answer). Unmarshal accepts exactly the
// inputs Validate accepts.
func Validate(buf []byte) error {
	if len(buf) < headerBytes {
		return fmt.Errorf("lsu: short message (%d bytes)", len(buf))
	}
	if buf[4]&^flagAck != 0 {
		return fmt.Errorf("lsu: unknown flags %#x", buf[4])
	}
	count := int(binary.BigEndian.Uint16(buf[5:7]))
	if want := headerBytes + count*entryBytes; len(buf) != want {
		return fmt.Errorf("lsu: length %d does not match %d entries", len(buf), count)
	}
	off := headerBytes
	for i := 0; i < count; i++ {
		op := Op(buf[off])
		if op < OpAdd || op > OpDelete {
			return fmt.Errorf("lsu: entry %d has invalid op %d", i, buf[off])
		}
		cost := math.Float64frombits(binary.BigEndian.Uint64(buf[off+9 : off+17]))
		if op != OpDelete && (math.IsNaN(cost) || cost < 0) {
			return fmt.Errorf("lsu: entry %d has invalid cost %v", i, cost)
		}
		off += entryBytes
	}
	return nil
}

// Unmarshal decodes a message, validating structure.
func Unmarshal(buf []byte) (*Msg, error) {
	m := new(Msg)
	if err := UnmarshalInto(m, buf); err != nil {
		return nil, err
	}
	return m, nil
}

// UnmarshalInto decodes a message into m, validating structure, and reuses
// m's entry storage where it is large enough: a receiver that keeps one
// message decodes every LSU without allocating. Entries is nil for a
// message without entries unless m already had storage. On error what m
// holds is unspecified.
func UnmarshalInto(m *Msg, buf []byte) error {
	if len(buf) < headerBytes {
		return fmt.Errorf("lsu: short message (%d bytes)", len(buf))
	}
	if buf[4]&^flagAck != 0 {
		return fmt.Errorf("lsu: unknown flags %#x", buf[4])
	}
	count := int(binary.BigEndian.Uint16(buf[5:7]))
	if want := headerBytes + count*entryBytes; len(buf) != want {
		return fmt.Errorf("lsu: length %d does not match %d entries", len(buf), count)
	}
	m.From = graph.NodeID(binary.BigEndian.Uint32(buf[0:4]))
	m.Ack = buf[4]&flagAck != 0
	if cap(m.Entries) < count {
		m.Entries = make([]Entry, count)
	}
	m.Entries = m.Entries[:count]
	off := headerBytes
	for i := range m.Entries {
		e := Entry{
			Op:   Op(buf[off]),
			Head: graph.NodeID(binary.BigEndian.Uint32(buf[off+1 : off+5])),
			Tail: graph.NodeID(binary.BigEndian.Uint32(buf[off+5 : off+9])),
			Cost: math.Float64frombits(binary.BigEndian.Uint64(buf[off+9 : off+17])),
		}
		if e.Op < OpAdd || e.Op > OpDelete {
			return fmt.Errorf("lsu: entry %d has invalid op %d", i, buf[off])
		}
		if e.Op != OpDelete && (math.IsNaN(e.Cost) || e.Cost < 0) {
			return fmt.Errorf("lsu: entry %d has invalid cost %v", i, e.Cost)
		}
		m.Entries[i] = e
		off += entryBytes
	}
	return nil
}
