package telemetry

import (
	"bufio"
	"io"
	"strconv"

	"minroute/internal/graph"
)

// WriteChromeTrace renders events as Chrome trace-viewer (catapult) JSON:
// open chrome://tracing (or https://ui.perfetto.dev) and load the file.
// Each router becomes a process row; ACTIVE phases render as duration
// spans (B/E pairs) and everything else as thread-scoped instants with the
// event attributes in args. Timestamps are simulation microseconds.
//
// Encoding is hand-rolled for the same reason as the JSONL writer: fixed
// field order and canonical floats keep the artifact byte-deterministic.
//
// The trace streams through one chunkSize buffer, which keeps its first
// write error, so the unchecked WriteStrings report theirs through the
// final Flush.
func WriteChromeTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriterSize(w, chunkSize)
	maxRouter := graph.NodeID(-1)
	network := false
	for i := range events {
		if r := events[i].Router; r >= 0 {
			if r > maxRouter {
				maxRouter = r
			}
		} else {
			network = true
		}
	}
	netPid := int(maxRouter) + 1

	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	sep := "\n"
	// Process-name metadata rows, in pid order.
	rows := netPid
	if network {
		rows++
	}
	for pid := range rows {
		b := append(freeTail(bw), sep...)
		sep = ",\n"
		b = append(b, `{"name":"process_name","ph":"M","pid":`...)
		b = strconv.AppendInt(b, int64(pid), 10)
		if pid == netPid {
			b = append(b, `,"args":{"name":"network"}}`...)
		} else {
			b = append(b, `,"args":{"name":"router `...)
			b = strconv.AppendInt(b, int64(pid), 10)
			b = append(b, `"}}`...)
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	for i := range events {
		b := appendChromeEvent(append(freeTail(bw), sep...), &events[i], netPid)
		sep = ",\n"
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// appendChromeEvent appends one event's trace object; network-scope events
// go to the netPid row.
func appendChromeEvent(b []byte, ev *Event, netPid int) []byte {
	if ev.Kind < numKinds {
		b = append(b, chromeHeads[ev.Kind]...)
	} else {
		b = appendChromeHead(b, ev.Kind)
	}
	b = strconv.AppendFloat(b, ev.T*1e6, 'g', -1, 64)
	pid := netPid
	if ev.Router >= 0 {
		pid = int(ev.Router)
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":0`...)
	if ev.Kind == KindPhaseActive || ev.Kind == KindPhasePassive {
		return append(b, '}')
	}
	b = append(b, `,"s":"t","args":{`...)
	b = appendChromeArgs(b, ev)
	return append(b, '}', '}')
}

// chromeHeads holds each kind's trace-object prefix up to the timestamp's
// value, `{"name":"lsu_send","cat":"control","ph":"i","ts":`, quoted once
// here rather than on every event.
var chromeHeads = func() (heads [numKinds]string) {
	for k := range numKinds {
		heads[k] = string(appendChromeHead(nil, k))
	}
	return heads
}()

// appendChromeHead writes a kind's trace-object prefix: an instant, or
// for the ACTIVE phase's edges the begin or end of a duration span.
func appendChromeHead(b []byte, k Kind) []byte {
	var name string
	var ph byte
	switch k {
	case KindPhaseActive:
		name, ph = "ACTIVE", 'B'
	case KindPhasePassive:
		name, ph = "ACTIVE", 'E'
	default:
		name, ph = k.String(), 'i'
	}
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, name)
	b = append(b, `,"cat":`...)
	b = strconv.AppendQuote(b, k.Category())
	b = append(b, `,"ph":"`...)
	b = append(b, ph, '"')
	return append(b, `,"ts":`...)
}

// appendChromeArgs writes the applicable event attributes, keys drawn from
// the registered AttrKey enum.
func appendChromeArgs(b []byte, ev *Event) []byte {
	b = appendAttr(b, AttrSeq)
	b = strconv.AppendUint(b, ev.Seq, 10)
	if ev.Peer != graph.None {
		b = append(b, ',')
		b = appendAttr(b, AttrPeer)
		b = strconv.AppendInt(b, int64(ev.Peer), 10)
	}
	if ev.Dst != graph.None {
		b = append(b, ',')
		b = appendAttr(b, AttrDst)
		b = strconv.AppendInt(b, int64(ev.Dst), 10)
	}
	if ev.Flow >= 0 {
		b = append(b, ',')
		b = appendAttr(b, AttrFlow)
		b = strconv.AppendInt(b, int64(ev.Flow), 10)
	}
	b = append(b, ',')
	b = appendAttr(b, AttrValue)
	b = strconv.AppendFloat(b, ev.Value, 'g', -1, 64)
	if ev.Label != "" {
		b = append(b, ',')
		b = appendAttr(b, AttrLabel)
		b = strconv.AppendQuote(b, ev.Label)
	}
	return b
}
