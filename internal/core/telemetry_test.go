package core

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"minroute/internal/graph"
	"minroute/internal/router"
	"minroute/internal/telemetry"
	"minroute/internal/topo"
)

// TestLinkCountersMirrorPorts: a link's tx.bits and lost.pkts counters are
// the port's own totals, mirrored in at export — bit for bit, and the same
// on a second export. The run fails and restores a loaded link (4-8) so
// some link loses packets.
func TestLinkCountersMirrorPorts(t *testing.T) {
	net := topo.NET1()
	o := quickOptions(router.ModeMP, 9)
	o.Telemetry = telemetry.NewCapture(net.Graph.NumNodes())
	n := Build(net, o)
	n.Start()
	n.RunUntil(5)
	n.FailLink(4, 8)
	n.RunUntil(8)
	n.RestoreLink(4, 8)
	n.RunUntil(12)

	dir := t.TempDir()
	if err := n.ExportTelemetry(dir, "first"); err != nil {
		t.Fatal(err)
	}
	reg := o.Telemetry.Metrics
	var lost int64
	for _, l := range net.Graph.Links() {
		p := n.Ports[[2]graph.NodeID{l.From, l.To}]
		name := fmt.Sprintf("link.%d-%d", l.From, l.To)
		if got := reg.Counter(name + ".tx.bits").Value(); math.Float64bits(got) != math.Float64bits(p.DataBits) {
			t.Errorf("%s.tx.bits = %v, port DataBits %v", name, got, p.DataBits)
		}
		if got := reg.Counter(name + ".lost.pkts").Value(); got != float64(p.LostData()) {
			t.Errorf("%s.lost.pkts = %v, port LostData %d", name, got, p.LostData())
		}
		lost += p.LostData()
	}
	if lost == 0 {
		t.Fatal("no link lost a packet: the failure tested nothing")
	}

	if err := n.ExportTelemetry(dir, "second"); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(filepath.Join(dir, "first.metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(filepath.Join(dir, "second.metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("a second export wrote a different metrics snapshot")
	}
}

// TestBuildRefusesTelemetryWithShards: a capture has one writer, so a
// sharded build with one is refused.
func TestBuildRefusesTelemetryWithShards(t *testing.T) {
	net := topo.NET1()
	o := quickOptions(router.ModeMP, 1)
	o.Shards = 2
	o.Telemetry = telemetry.NewCapture(net.Graph.NumNodes())
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "telemetry needs a serial run") {
			t.Fatalf("Build with Shards 2 and a capture: recovered %q, want the serial-run panic", msg)
		}
	}()
	Build(net, o)
}
