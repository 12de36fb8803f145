package telemetry

import (
	"bytes"
	"encoding/json"
	"minroute/internal/leaktest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"minroute/internal/graph"
)

func TestKindNamesComplete(t *testing.T) {
	leaktest.Check(t)
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "kind(") {
			t.Fatalf("kind %d has no wire name", k)
		}
		if kindCats[k] == "" {
			t.Fatalf("kind %s has no category", name)
		}
		got, ok := KindByName(name)
		if !ok || got != k {
			t.Fatalf("KindByName(%q) = %v, %v; want %v, true", name, got, ok, k)
		}
	}
	if _, ok := KindByName("nope"); ok {
		t.Fatal("KindByName accepted an unknown name")
	}
}

func TestTracerMergeOrder(t *testing.T) {
	leaktest.Check(t)
	tr := NewTracer(3, 0)
	// Interleave emissions across routers and the network ring; the merged
	// stream must come back in emission order.
	routers := []graph.NodeID{2, 0, 1, graph.None, 2, 0, 1, 1, graph.None, 0}
	for i, r := range routers {
		tr.Emit(Event{T: float64(i) * 0.5, Kind: KindLSUSend, Router: r})
	}
	if got := tr.Emitted(); got != uint64(len(routers)) {
		t.Fatalf("Emitted() = %d, want %d", got, len(routers))
	}
	if got := tr.Dropped(); got != 0 {
		t.Fatalf("Dropped() = %d, want 0", got)
	}
	evs := tr.Events()
	if len(evs) != len(routers) {
		t.Fatalf("Events() returned %d events, want %d", len(evs), len(routers))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has Seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Router != routers[i] {
			t.Fatalf("event %d has Router %d, want %d", i, ev.Router, routers[i])
		}
	}
}

func TestTracerRingWrap(t *testing.T) {
	leaktest.Check(t)
	tr := NewTracer(1, 4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{T: float64(i), Kind: KindPktEnqueue, Router: 0})
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped() = %d, want 6", got)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// Oldest were overwritten: the survivors are the last four emissions
	// (T 6..9), restamped with a contiguous merge rank.
	for i, ev := range evs {
		if want := float64(6 + i); ev.T != want {
			t.Fatalf("event %d has T %v, want %v", i, ev.T, want)
		}
		if want := uint64(1 + i); ev.Seq != want {
			t.Fatalf("event %d has Seq %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestTracerOutOfRangeRouter(t *testing.T) {
	leaktest.Check(t)
	tr := NewTracer(2, 8)
	tr.Emit(Event{Kind: KindFaultStart, Router: graph.None})
	tr.Emit(Event{Kind: KindFaultStart, Router: 99})
	if n := len(tr.ringOf(graph.None, bandControl).buf); n != 2 {
		t.Fatalf("network ring holds %d events, want 2", n)
	}
}

// TestTruncationNamesTheBand overflows each band of a 4-slot tracer in
// turn. Packets flooding the data band evict no control-plane event, each
// band counts its own drops, and the truncation warning names the band that
// lost events, with that band's counts.
func TestTruncationNamesTheBand(t *testing.T) {
	leaktest.Check(t)
	c := &Capture{Trace: NewTracer(1, 4), Metrics: NewRegistry(1)}
	for i := range 3 {
		c.Trace.Emit(NewEvent(float64(i), KindLSUSend, 0))
	}
	for i := range 5 {
		c.Trace.EmitPkt(float64(3+i), KindPktEnqueue, 0, 1, 1, 0, uint32(i)*pktSampleEvery, 8000)
		drop := NewEvent(float64(3+i), KindDropQueue, 0)
		drop.Flow, drop.Pkt = 0, uint32(i)+1
		c.Trace.Emit(drop)
	}
	if got := c.Truncation("run"); got != "run: telemetry data band dropped 6 of 10 events; the exported log is truncated" {
		t.Errorf("data overflow: Truncation = %q", got)
	}
	if got := countKind(c.Trace.Events(), KindLSUSend); got != 3 {
		t.Errorf("the data band's overflow left %d of 3 lsu_send events", got)
	}

	for i := range 5 {
		c.Trace.Emit(NewEvent(float64(20+i), KindTableCommit, 0))
	}
	if got, want := c.Truncation("run"), "run: telemetry control band dropped 4 of 8 events, data band dropped 6 of 10 events; the exported log is truncated"; got != want {
		t.Errorf("both bands overflowed: Truncation = %q, want %q", got, want)
	}
	c.SyncDropCounters()
	snap := c.Metrics.Snapshot()
	for _, want := range []string{
		"counter telemetry.events.dropped 10\n",
		"counter telemetry.events.dropped.control 4\n",
		"counter telemetry.events.dropped.data 6\n",
		"counter telemetry.events.emitted 18\n",
		"gauge telemetry.events.pkt_sample_every 32\n",
	} {
		if !strings.Contains(snap, want) {
			t.Errorf("snapshot missing %q:\n%s", want, snap)
		}
	}
	if got := (&Capture{Trace: NewTracer(1, 4)}).Truncation("run"); got != "" {
		t.Errorf("empty capture: Truncation = %q, want none", got)
	}
}

// TestPacketSample: pkt_enqueue and pkt_deliver are kept only for packets
// whose number is a multiple of the sample rate, through Emit and EmitPkt
// alike; losses and drops are kept for every packet.
func TestPacketSample(t *testing.T) {
	leaktest.Check(t)
	tr := NewTracer(2, 0)
	kinds := []Kind{KindPktEnqueue, KindPktDeliver, KindPktLost, KindDropQueue}
	for pkt := uint32(1); pkt <= 3*pktSampleEvery; pkt++ {
		for _, k := range kinds {
			ev := NewEvent(float64(pkt), k, 0)
			ev.Flow, ev.Pkt = 0, pkt
			tr.Emit(ev)
			tr.EmitPkt(float64(pkt), k, 1, 0, 0, 0, pkt, 0)
		}
	}
	got := map[Kind]int{}
	for _, ev := range tr.Events() {
		got[ev.Kind]++
		if sampledOut(ev.Kind, ev.Pkt) {
			t.Errorf("kept %s of packet %d", ev.Kind, ev.Pkt)
		}
	}
	want := map[Kind]int{KindPktEnqueue: 6, KindPktDeliver: 6, KindPktLost: 6 * pktSampleEvery, KindDropQueue: 6 * pktSampleEvery}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("kept %v, want %v", got, want)
	}
}

func countKind(evs []Event, k Kind) int {
	n := 0
	for _, ev := range evs {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

func TestNilSinksAreSafe(t *testing.T) {
	leaktest.Check(t)
	var tr *Tracer
	tr.Emit(Event{Kind: KindLSUSend})
	if tr.Emitted() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil Tracer is not inert")
	}
	var c *Counter
	c.Add(1)
	c.Inc()
	c.Set(3)
	if c.Value() != 0 {
		t.Fatal("nil Counter is not inert")
	}
	var g *Gauge
	g.Set(2)
	if g.Value() != 0 {
		t.Fatal("nil Gauge is not inert")
	}
	var h *Histogram
	h.Observe(1, 2)
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Buckets() != nil {
		t.Fatal("nil Histogram is not inert")
	}
	var m *ConvergeMeter
	m.TopoEvent(1)
	m.Commit(2)
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil Registry produced a non-nil instrument")
	}
	if r.Snapshot() != "" {
		t.Fatal("nil Registry snapshot is not empty")
	}
	var p *LinkProbe
	_ = p
	var cap *Capture
	_ = cap
}

func TestDisabledProbesZeroAlloc(t *testing.T) {
	leaktest.Check(t)
	var tr *Tracer
	var c *Counter
	var h *Histogram
	ev := NewEvent(1, KindPktEnqueue, 0)
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(ev)
		c.Add(8000)
		h.Observe(1, 8000)
	})
	if allocs != 0 {
		t.Fatalf("disabled probe path allocates %v/op, want 0", allocs)
	}
}

// TestEventSize: Pkt lives in the padding after Flow. A wider Event costs
// every ring slot and every merge copy, enabled or not.
func TestEventSize(t *testing.T) {
	leaktest.Check(t)
	if got := unsafe.Sizeof(Event{}); got != 64 {
		t.Fatalf("Event is %d bytes, want 64", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	leaktest.Check(t)
	h := &Histogram{width: 2}
	h.Observe(0.5, 10)
	h.Observe(1.9, 30)
	h.Observe(2.0, 6)
	h.Observe(7.5, 4)
	h.Observe(-1, 2) // negative time clamps to bucket 0
	if h.Count() != 5 {
		t.Fatalf("Count() = %d, want 5", h.Count())
	}
	bks := h.Buckets()
	if len(bks) != 4 {
		t.Fatalf("got %d buckets, want 4", len(bks))
	}
	if bks[0].N != 3 || bks[0].Sum != 42 || bks[0].Max != 30 {
		t.Fatalf("bucket 0 = %+v", bks[0])
	}
	if bks[1].N != 1 || bks[1].Sum != 6 {
		t.Fatalf("bucket 1 = %+v", bks[1])
	}
	if bks[2].N != 0 {
		t.Fatalf("bucket 2 = %+v, want empty", bks[2])
	}
	if bks[3].N != 1 || bks[3].Sum != 4 {
		t.Fatalf("bucket 3 = %+v", bks[3])
	}
	if h.Max() != 30 {
		t.Fatalf("Max() = %v, want 30", h.Max())
	}
}

func TestConvergeMeter(t *testing.T) {
	leaktest.Check(t)
	reg := NewRegistry(1)
	m := &ConvergeMeter{Lag: reg.Histogram("converge.lag"), Last: reg.Gauge("converge.last")}
	m.Commit(1) // not armed: ignored
	if m.Lag.Count() != 0 {
		t.Fatal("commit before any topology event recorded a lag")
	}
	m.TopoEvent(10)
	m.TopoEvent(12) // re-arm (no commit yet) restarts the episode
	m.Commit(12.5)  // the first commit closes it at once
	if m.Lag.Count() != 1 {
		t.Fatalf("lag count = %d, want 1", m.Lag.Count())
	}
	if got := m.Last.Value(); got != 0.5 {
		t.Fatalf("last lag = %v, want 0.5", got)
	}
	m.Commit(13) // later commit of the closed episode: ignored
	if m.Lag.Count() != 1 || m.Last.Value() != 0.5 {
		t.Fatalf("a later commit of a closed episode recorded a lag: count %d, last %v", m.Lag.Count(), m.Last.Value())
	}
	m.TopoEvent(20)
	m.Commit(21)
	m.Commit(21.5)
	if m.Lag.Count() != 2 {
		t.Fatalf("lag count = %d, want 2", m.Lag.Count())
	}
	if got := m.Last.Value(); got != 1 {
		t.Fatalf("last lag = %v, want 1", got)
	}
	if got := m.Lag.Total().Sum; got != 1.5 {
		t.Fatalf("lag sum = %v, want 1.5", got)
	}
	m.TopoEvent(30) // open episode, no commit: records nothing
	if m.Lag.Count() != 2 {
		t.Fatalf("lag count with an open episode = %d, want 2", m.Lag.Count())
	}
}

func TestRegistrySnapshotDeterministic(t *testing.T) {
	leaktest.Check(t)
	build := func() *Registry {
		r := NewRegistry(1)
		r.Counter("b.count").Add(2)
		r.Counter("a.count").Inc()
		r.Gauge("z.gauge").Set(0.125)
		h := r.Histogram("q.depth")
		h.Observe(0.5, 4)
		h.Observe(2.5, 8)
		return r
	}
	s1, s2 := build().Snapshot(), build().Snapshot()
	if s1 != s2 {
		t.Fatalf("snapshots differ:\n%s\n---\n%s", s1, s2)
	}
	want := "counter a.count 1\n" +
		"counter b.count 2\n" +
		"gauge z.gauge 0.125\n" +
		"hist q.depth n=2 mean=6 max=8\n" +
		"hist q.depth[0] t0=0 n=1 mean=4 max=4\n" +
		"hist q.depth[2] t0=2 n=1 mean=8 max=8\n"
	if s1 != want {
		t.Fatalf("snapshot:\n%s\nwant:\n%s", s1, want)
	}
	// Reading an instrument must not perturb the snapshot.
	r := build()
	_ = r.Counter("a.count").Value()
	if r.Snapshot() != want {
		t.Fatal("get-or-create of an existing instrument changed the snapshot")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	leaktest.Check(t)
	in := []Event{
		{T: 0, Seq: 1, Kind: KindPhaseActive, Router: 0, Peer: graph.None, Dst: graph.None, Flow: -1},
		{T: 0.25, Seq: 2, Kind: KindLSUSend, Router: 0, Peer: 1, Dst: graph.None, Flow: -1, Value: 640},
		{T: 0.25, Seq: 3, Kind: KindPktEnqueue, Router: 1, Peer: 2, Dst: 5, Flow: 3, Pkt: 1<<32 - 1, Value: 8000},
		{T: 1.5, Seq: 4, Kind: KindFaultStart, Router: graph.None, Peer: graph.None, Dst: graph.None, Flow: -1, Label: "link-fail 0-1"},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round-trip returned %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("event %d round-trip mismatch:\n in %+v\nout %+v", i, in[i], out[i])
		}
	}
}

func TestJSONLFixedKeyOrder(t *testing.T) {
	leaktest.Check(t)
	ev := Event{T: 1.25, Seq: 7, Kind: KindPktDeliver, Router: 4, Peer: graph.None, Dst: 4, Flow: 2, Pkt: 9, Value: 0.01, Label: "x"}
	got := string(AppendJSONL(nil, ev))
	want := `{"t":1.25,"seq":7,"kind":"pkt_deliver","router":4,"peer":-1,"dst":4,"flow":2,"value":0.01,"label":"x","pkt":9}`
	if got != want {
		t.Fatalf("JSONL line:\n got %s\nwant %s", got, want)
	}
}

func TestJSONLReadErrors(t *testing.T) {
	leaktest.Check(t)
	if _, err := ReadJSONL(strings.NewReader("{broken\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"t":0,"seq":1,"kind":"mystery","router":0,"peer":-1,"dst":-1,"flow":-1,"value":0}` + "\n")); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestChromeTraceWellFormed(t *testing.T) {
	leaktest.Check(t)
	tr := NewTracer(2, 0)
	tr.Emit(NewEvent(0.1, KindPhaseActive, 0))
	ev := NewEvent(0.2, KindLSUSend, 0)
	ev.Peer = 1
	ev.Value = 640
	tr.Emit(ev)
	recv := NewEvent(0.25, KindLSURecv, 1)
	recv.Peer = 0
	recv.Value = 3
	tr.Emit(recv)
	done := NewEvent(0.3, KindPhasePassive, 0)
	done.Value = 0.2
	tr.Emit(done)
	fault := NewEvent(0.5, KindFaultStart, graph.None)
	fault.Label = "crash 1"
	tr.Emit(fault)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	// 2 router metadata + 1 network metadata + 5 events.
	if len(doc.TraceEvents) != 8 {
		t.Fatalf("got %d trace events, want 8:\n%s", len(doc.TraceEvents), buf.String())
	}
	phases := map[string]int{}
	for _, te := range doc.TraceEvents {
		phases[te["ph"].(string)]++
	}
	if phases["M"] != 3 || phases["B"] != 1 || phases["E"] != 1 || phases["i"] != 3 {
		t.Fatalf("phase histogram %v, want M:3 B:1 E:1 i:3", phases)
	}
	// The fault instant lands on the network pid (maxRouter+1 = 3... routers
	// are 0..1 here, netPid=2).
	var faultPid float64 = -1
	for _, te := range doc.TraceEvents {
		if te["name"] == "fault_start" {
			faultPid = te["pid"].(float64)
		}
	}
	if faultPid != 2 {
		t.Fatalf("fault event pid = %v, want network pid 2", faultPid)
	}
}

func TestCaptureExport(t *testing.T) {
	leaktest.Check(t)
	dir := t.TempDir()
	c := &Capture{Trace: NewTracer(2, 16), Metrics: NewRegistry(1)}
	c.Trace.Emit(NewEvent(0, KindPhaseActive, 0))
	c.Metrics.Counter("control.msgs").Inc()
	if err := c.Export(dir, "run"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"run.events.jsonl", "run.metrics.txt"} {
		if _, err := os.ReadFile(filepath.Join(dir, name)); err != nil {
			t.Fatalf("missing artifact %s: %v", name, err)
		}
	}
}
