package node

import (
	"testing"

	"minroute/internal/graph"
	"minroute/internal/telemetry"
	"minroute/internal/transport"
)

// TestARQStatsDisabledNil pins the fully-disabled path: with neither a
// trace nor any instrument the observer is nil, which is the one-branch
// zero-cost configuration the transport's own guard benchmarks rely on.
func TestARQStatsDisabledNil(t *testing.T) {
	if s := arqStats(0, 1, linkInstruments{}, MeshConfig{Clock: transport.NewVirtualClock()}); s != nil {
		t.Fatal("arqStats with no sinks should be nil")
	}
}

// TestARQStatsEnabledZeroAlloc guards the enabled metrics-only path: the
// per-event callbacks write through precomputed atomic instruments and
// must not allocate — no fmt.Sprintf, no map lookups, nothing reachable
// per retransmission or per window update.
func TestARQStatsEnabledZeroAlloc(t *testing.T) {
	reg := telemetry.NewRegistry(0)
	li := linkInstruments{
		retx: reg.Counter("arq.retransmits.0-1"),
		win:  reg.Gauge("arq.window.0-1"),
	}
	stats := arqStats(0, 1, li, MeshConfig{Clock: transport.NewVirtualClock()})
	if stats == nil {
		t.Fatal("arqStats with instruments should be non-nil")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		stats.Retransmit(7, 0.01, false)
		stats.RTOUpdate(0.01, 0.002, 0.02)
		stats.Window(3, 8)
	})
	if allocs != 0 {
		t.Fatalf("enabled-stats path allocates %v/op, want 0", allocs)
	}
	if got := li.retx.Value(); got < 1000 {
		t.Fatalf("retransmit counter = %v, want >= 1000", got)
	}
	if got := li.win.Value(); got != 3 {
		t.Fatalf("window gauge = %v, want 3", got)
	}
}

// TestLinkInstrumentsAliasing checks the dual-registry wiring: with
// per-node registries the owning node's registry creates the instrument
// and the mesh-wide registry aliases the very same counter, so a write
// through the ARQ callback is visible in both and on the node's /peers
// handles.
func TestLinkInstrumentsAliasing(t *testing.T) {
	clk := transport.NewVirtualClock()
	shared := telemetry.NewRegistry(0)
	n0, err := New(Config{ID: 0, Nodes: 2, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()
	n1, err := New(Config{ID: 1, Nodes: 2, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	m := &Mesh{
		Nodes: []*Node{n0, n1},
		regs:  []*telemetry.Registry{telemetry.NewRegistry(0), telemetry.NewRegistry(0)},
	}
	li := m.linkInstruments(0, 1, MeshConfig{Clock: clk, Metrics: shared}, true)
	if li.retx == nil || li.win == nil || li.wq == nil {
		t.Fatal("linkInstruments returned nil handles")
	}
	if m.regs[0].Gauge("session.writeq.0-1") != li.wq || shared.Gauge("session.writeq.0-1") != li.wq {
		t.Fatal("writer-queue gauge not aliased across registries")
	}
	if m.regs[0].Counter("arq.retransmits.0-1") != li.retx {
		t.Fatal("node registry does not own the counter")
	}
	if shared.Counter("arq.retransmits.0-1") != li.retx {
		t.Fatal("mesh-wide registry did not alias the node's counter")
	}
	if m.regs[0].Gauge("arq.window.0-1") != li.win || shared.Gauge("arq.window.0-1") != li.win {
		t.Fatal("gauge not aliased across registries")
	}
	if n0.peerStats[graph.NodeID(1)].retx != li.retx {
		t.Fatal("owning node's peer handles not installed")
	}
	li.retx.Inc()
	if shared.Counter("arq.retransmits.0-1").Value() != 1 {
		t.Fatal("write not visible through the alias")
	}
}
