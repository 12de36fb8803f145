package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"minroute/internal/graph"
)

// AppendJSONL appends one event as a single JSON line (without the
// trailing newline) to b. The encoding is hand-rolled so the field order
// and float formatting are fixed — the log must hash identically
// run-to-run, which encoding/json's map-order and append-buffer behaviors
// do not promise as directly. Label is omitted when empty, and Pkt when
// zero.
func AppendJSONL(b []byte, ev Event) []byte {
	b = append(b, '{')
	b = appendAttr(b, AttrT)
	b = strconv.AppendFloat(b, ev.T, 'g', -1, 64)
	b = append(b, ',')
	b = appendAttr(b, AttrSeq)
	b = strconv.AppendUint(b, ev.Seq, 10)
	if ev.Kind < numKinds {
		b = append(b, jsonlKinds[ev.Kind]...)
	} else {
		b = appendJSONLKind(b, ev.Kind)
	}
	b = strconv.AppendInt(b, int64(ev.Router), 10)
	b = append(b, ',')
	b = appendAttr(b, AttrPeer)
	b = strconv.AppendInt(b, int64(ev.Peer), 10)
	b = append(b, ',')
	b = appendAttr(b, AttrDst)
	b = strconv.AppendInt(b, int64(ev.Dst), 10)
	b = append(b, ',')
	b = appendAttr(b, AttrFlow)
	b = strconv.AppendInt(b, int64(ev.Flow), 10)
	b = append(b, ',')
	b = appendAttr(b, AttrValue)
	b = strconv.AppendFloat(b, ev.Value, 'g', -1, 64)
	if ev.Label != "" {
		b = append(b, ',')
		b = appendAttr(b, AttrLabel)
		b = strconv.AppendQuote(b, ev.Label)
	}
	if ev.Pkt != 0 {
		b = append(b, ',')
		b = appendAttr(b, AttrPkt)
		b = strconv.AppendUint(b, uint64(ev.Pkt), 10)
	}
	return append(b, '}')
}

// jsonlKinds holds each kind's line segment from the comma after seq up
// to the router's value, `,"kind":"lsu_send","router":`, quoted once here
// rather than on every event.
var jsonlKinds = func() (segs [numKinds]string) {
	for k := range numKinds {
		segs[k] = string(appendJSONLKind(nil, k))
	}
	return segs
}()

func appendJSONLKind(b []byte, k Kind) []byte {
	b = append(b, ',')
	b = appendAttr(b, AttrKind)
	b = strconv.AppendQuote(b, k.String())
	b = append(b, ',')
	return appendAttr(b, AttrRouter)
}

func appendAttr(b []byte, k AttrKey) []byte {
	b = append(b, '"')
	b = append(b, k...)
	return append(b, '"', ':')
}

// WriteJSONL writes events as one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	return writeJSONL(bufio.NewWriterSize(w, chunkSize), events)
}

func writeJSONL(bw *bufio.Writer, events []Event) error {
	for i := range events {
		if _, err := bw.Write(append(AppendJSONL(freeTail(bw), events[i]), '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// jsonlEvent mirrors the wire schema for the reader. The tag strings must
// match the AttrKey constants; the encode/decode round-trip test pins it.
type jsonlEvent struct {
	T      float64 `json:"t"`
	Seq    uint64  `json:"seq"`
	Kind   string  `json:"kind"`
	Router int32   `json:"router"`
	Peer   int32   `json:"peer"`
	Dst    int32   `json:"dst"`
	Flow   int32   `json:"flow"`
	Value  float64 `json:"value"`
	Label  string  `json:"label"`
	Pkt    uint32  `json:"pkt"`
}

// ReadJSONL parses an event log written by WriteJSONL. Used by mdrtrace
// and the round-trip tests; not a hot path, so it leans on encoding/json.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var je jsonlEvent
		if err := json.Unmarshal(raw, &je); err != nil {
			return nil, fmt.Errorf("telemetry: events line %d: %w", line, err)
		}
		k, ok := KindByName(je.Kind)
		if !ok {
			return nil, fmt.Errorf("telemetry: events line %d: unknown kind %q", line, je.Kind)
		}
		out = append(out, Event{
			T:      je.T,
			Seq:    je.Seq,
			Kind:   k,
			Router: graph.NodeID(je.Router),
			Peer:   graph.NodeID(je.Peer),
			Dst:    graph.NodeID(je.Dst),
			Flow:   je.Flow,
			Value:  je.Value,
			Label:  je.Label,
			Pkt:    je.Pkt,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
