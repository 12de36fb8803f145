package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"minroute/internal/graph"
	"minroute/internal/leaktest"
)

// TestExportersEmpty pins the degenerate artifacts: a run that emitted
// nothing must still produce a valid (and byte-stable) Chrome document,
// an empty JSONL log, and a clean read of that log.
func TestExportersEmpty(t *testing.T) {
	leaktest.Check(t)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("empty trace has %d rows, want 0", len(doc.TraceEvents))
	}

	buf.Reset()
	if err := WriteJSONL(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty JSONL log = %q, want no bytes", buf.String())
	}
	events, err := ReadJSONL(&buf)
	if err != nil || events != nil {
		t.Fatalf("reading an empty log: events=%v err=%v, want nil/nil", events, err)
	}
}

// TestChromeTracePidRows pins the process-row layout: metadata rows run
// 0..maxRouter even for routers that emitted nothing (trace-viewer rows
// stay aligned with router IDs), and the network row appears only when a
// network-scope event exists, always as maxRouter+1.
func TestChromeTracePidRows(t *testing.T) {
	leaktest.Check(t)
	// Routers 0 and 3 emit; 1 and 2 are silent. No network events.
	evs := []Event{
		NewEvent(0.1, KindLSUSend, 0),
		NewEvent(0.2, KindLSURecv, 3),
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, evs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, te := range doc.TraceEvents {
		if te["ph"] == "M" {
			args := te["args"].(map[string]any)
			names = append(names, args["name"].(string))
		}
	}
	want := []string{"router 0", "router 1", "router 2", "router 3"}
	if len(names) != len(want) {
		t.Fatalf("metadata rows %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("metadata rows %v, want %v", names, want)
		}
	}
	if strings.Contains(buf.String(), `"network"`) {
		t.Fatal("network row emitted without network-scope events")
	}

	// Adding one network-scope event grows exactly one more row at
	// pid maxRouter+1.
	fault := NewEvent(0.5, KindFaultStart, graph.None)
	buf.Reset()
	if err := WriteChromeTrace(&buf, append(evs, fault)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"pid":4,"args":{"name":"network"}`) {
		t.Fatalf("network row missing or on the wrong pid:\n%s", buf.String())
	}
}

// TestExportRingWrapped drives a tiny ring past capacity and checks the
// whole truncation story: Events keeps only the newest entries the band
// holds, in Seq order, the loss is visible through Dropped, and
// SyncDropCounters surfaces it as first-class metrics in the snapshot.
func TestExportRingWrapped(t *testing.T) {
	leaktest.Check(t)
	c := &Capture{Trace: NewTracer(0, 4), Metrics: NewRegistry(1)}
	for i := 0; i < 10; i++ {
		c.Trace.Emit(NewEvent(float64(i), KindLSUSend, 0))
	}
	evs := c.Trace.Events()
	if len(evs) != 4 {
		t.Fatalf("ring-wrapped Events() returned %d, want capacity 4", len(evs))
	}
	// The survivors are the newest four, re-stamped 1..4.
	for i, ev := range evs {
		if ev.T != float64(6+i) || ev.Seq != uint64(i+1) {
			t.Fatalf("event %d = T%g Seq%d, want T%d Seq%d", i, ev.T, ev.Seq, 6+i, i+1)
		}
	}
	if c.Trace.Emitted() != 10 || c.Trace.Dropped() != 6 {
		t.Fatalf("emitted=%d dropped=%d, want 10 and 6", c.Trace.Emitted(), c.Trace.Dropped())
	}

	// The wrapped log still round-trips through JSONL.
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil || len(back) != 4 {
		t.Fatalf("round-trip of wrapped log: %d events, err=%v", len(back), err)
	}

	// Drop accounting lands in the metrics snapshot (and so on /metrics).
	c.SyncDropCounters()
	snap := c.Metrics.Snapshot()
	for _, want := range []string{
		"counter telemetry.events.dropped 6",
		"counter telemetry.events.emitted 10",
	} {
		if !strings.Contains(snap, want) {
			t.Errorf("snapshot missing %q:\n%s", want, snap)
		}
	}
}

// TestReadJSONLOversizedLine pins the scanner bound: a line beyond the
// 1 MiB buffer surfaces as an error instead of silent truncation.
func TestReadJSONLOversizedLine(t *testing.T) {
	leaktest.Check(t)
	line := `{"t":0,"seq":1,"kind":"lsu_send","router":0,"peer":-1,"dst":-1,"flow":-1,"value":0,"label":"` +
		strings.Repeat("x", 1<<21) + `"}`
	if _, err := ReadJSONL(strings.NewReader(line)); err == nil {
		t.Fatal("oversized line accepted")
	}
}

// fillCapture emits n events of every kind over four routers and the
// network ring, labelling some, into a capture whose rings hold them all.
func fillCapture(n int) *Capture {
	c := &Capture{Trace: NewTracer(4, n), Metrics: NewRegistry(1)}
	labels := []string{"", "", "", "link-fail 0-1", "", "fast", "", "rto"}
	for i := range n {
		ev := NewEvent(float64(i)/1000, Kind(i%int(numKinds)), graph.NodeID(i%5)-1)
		ev.Peer, ev.Flow, ev.Pkt = graph.NodeID(i%3), int32(i%4)-1, uint32(i%2)
		ev.Value, ev.Label = float64(i)*0.125, labels[i%len(labels)]
		c.Trace.Emit(ev)
	}
	c.Metrics.Counter("control.msgs").Add(float64(n))
	return c
}

// TestExportMatchesWriters: Export streams the event log in chunks through
// the appender the public writer uses, so its JSONL must equal WriteJSONL
// of the same events byte for byte and the events' AppendJSONL lines, with
// the file long enough to take several chunks; and it writes no Chrome
// trace (TestChromeTraceIsViewOfJSONL).
func TestExportMatchesWriters(t *testing.T) {
	leaktest.Check(t)
	dir := t.TempDir()
	c := fillCapture(5000)
	if err := c.Export(dir, "run"); err != nil {
		t.Fatal(err)
	}
	events := c.Trace.Events()
	var lines []byte
	for _, ev := range events {
		lines = append(AppendJSONL(lines, ev), '\n')
	}
	got, err := os.ReadFile(filepath.Join(dir, "run.events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 3*chunkSize {
		t.Fatalf("run.events.jsonl is %d bytes, want several %d-byte chunks", len(got), chunkSize)
	}
	var want bytes.Buffer
	if err := WriteJSONL(&want, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("run.events.jsonl differs from WriteJSONL's output")
	}
	if !bytes.Equal(got, lines) {
		t.Error("run.events.jsonl differs from the events' AppendJSONL lines")
	}
	snap, err := os.ReadFile(filepath.Join(dir, "run.metrics.txt"))
	if err != nil || string(snap) != c.Metrics.Snapshot() {
		t.Errorf("run.metrics.txt = %q, err %v; want the registry snapshot", snap, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 2 {
		t.Errorf("Export wrote %d files (err %v), want the event log and the metrics", len(entries), err)
	}
}

// TestChromeTraceIsViewOfJSONL: the Chrome trace of the events read back
// from their JSONL log equals that of the events themselves, byte for
// byte, for a capture holding labelled events of every Kind — so
// `mdrtrace -chrome` on an exported log renders exactly the trace the
// simulation could have written itself.
func TestChromeTraceIsViewOfJSONL(t *testing.T) {
	leaktest.Check(t)
	events := fillCapture(5000).Trace.Events()
	var jsonl, direct, viewed bytes.Buffer
	if err := WriteJSONL(&jsonl, events); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&direct, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&viewed, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), viewed.Bytes()) {
		t.Error("the Chrome trace of the JSONL round trip differs from the trace of the events")
	}
}

// TestExportReportsWriteErrors: a file Export cannot create, a file it
// cannot write (a link to /dev/full, where Linux has one), and a writer
// that fails partway surface as errors instead of short artifacts.
func TestExportReportsWriteErrors(t *testing.T) {
	leaktest.Check(t)
	c := fillCapture(5000)
	if err := c.Export(filepath.Join(t.TempDir(), "missing"), "run"); err == nil {
		t.Error("Export into a missing directory returned nil")
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		dir := t.TempDir()
		if err := os.Symlink("/dev/full", filepath.Join(dir, "run.metrics.txt")); err != nil {
			t.Fatal(err)
		}
		if err := c.Export(dir, "run"); err == nil {
			t.Error("Export onto a full device returned nil")
		}
	}
	events := fillCapture(5000).Trace.Events()
	for _, write := range []func(io.Writer, []Event) error{WriteJSONL, WriteChromeTrace} {
		if err := write(&failAfter{chunkSize}, events); err == nil {
			t.Error("a writer that fails after one chunk was not reported")
		}
	}
}

// failAfter accepts n bytes in all and then fails.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		return 0, io.ErrShortWrite
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWritersEncodeUnknownKind: a kind outside the name table encodes as
// kind(N) in the unknown category in both formats rather than panicking.
func TestWritersEncodeUnknownKind(t *testing.T) {
	leaktest.Check(t)
	events := []Event{NewEvent(0.5, Kind(200), 1), NewEvent(1, KindLSUSend, 0)}
	var jsonl, chrome bytes.Buffer
	if err := WriteJSONL(&jsonl, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&chrome, events); err != nil {
		t.Fatal(err)
	}
	if want := `"kind":"kind(200)","router":1,`; !strings.Contains(jsonl.String(), want) {
		t.Errorf("JSONL lacks %s:\n%s", want, jsonl.String())
	}
	if want := `{"name":"kind(200)","cat":"unknown","ph":"i","ts":500000,"pid":1,`; !strings.Contains(chrome.String(), want) {
		t.Errorf("Chrome trace lacks %s:\n%s", want, chrome.String())
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
}

// TestExportAllocBudget is the enabled path's allocation guard (make
// telemetry-guard): Export allocates per file and per ring, never per
// event, so ten times the events cost no more allocations; Emit into a
// ring that has grown to capacity, labelled or not, allocates nothing; and
// a data event the sample skips neither allocates nor takes a ring slot.
func TestExportAllocBudget(t *testing.T) {
	leaktest.Check(t)
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
	dir := t.TempDir()
	allocs := func(n int) float64 {
		c := fillCapture(n)
		return testing.AllocsPerRun(2, func() {
			if err := c.Export(dir, "run"); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := allocs(10_000), allocs(100_000)
	t.Logf("Export allocations: %v for 10k events, %v for 100k", small, big)
	if big > small {
		t.Errorf("Export allocates %v times for 100k events, %v for 10k: the count grows with the events", big, small)
	}

	tr := NewTracer(0, 64)
	ev := NewEvent(2, KindPktEnqueue, 1)
	labelled := NewEvent(2, KindFaultStart, graph.None)
	labelled.Label = "link-fail 0-1"
	for range 64 { // grow both rings to capacity and intern the label
		tr.Emit(ev)
		tr.Emit(labelled)
	}
	if n := testing.AllocsPerRun(1000, func() {
		tr.Emit(ev)
		tr.Emit(labelled)
	}); n != 0 {
		t.Errorf("Emit into a grown ring allocates %v/op, want 0", n)
	}

	// A data event the sample skips costs a test: no allocation, no ring
	// slot, no emission count.
	skipped := NewEvent(2, KindPktDeliver, 1)
	skipped.Pkt = pktSampleEvery + 1
	before, ring := tr.Emitted(), tr.rings[bandData]
	if n := testing.AllocsPerRun(1000, func() {
		tr.Emit(skipped)
		tr.EmitPkt(2, KindPktEnqueue, 1, 2, 3, 0, pktSampleEvery-1, 8000)
	}); n != 0 {
		t.Errorf("a sampled-out data event allocates %v/op, want 0", n)
	}
	if after := tr.rings[bandData]; tr.Emitted() != before || after.head != ring.head || after.dropped != ring.dropped || len(after.buf) != len(ring.buf) {
		t.Errorf("sampled-out data events were recorded: emitted %d -> %d, ring head %d -> %d, dropped %d -> %d",
			before, tr.Emitted(), ring.head, after.head, ring.dropped, after.dropped)
	}
}
