package protonet

import (
	"fmt"
	"testing"

	"minroute/internal/graph"
	"minroute/internal/lsu"
	"minroute/internal/topo"
)

// bounce is a Node that puts every message it receives straight back on the
// link it came by, so each link's queue keeps the depth it was given and the
// set of non-empty queues — Step's candidates — is every link, always.
type bounce struct {
	id      graph.NodeID
	senders []func(to graph.NodeID, m *lsu.Msg)
}

func (b bounce) HandleLSU(m *lsu.Msg)               { b.senders[m.From](b.id, m) }
func (bounce) LinkUp(graph.NodeID, float64)         {}
func (bounce) LinkCostChange(graph.NodeID, float64) {}
func (bounce) LinkDown(graph.NodeID)                {}

// bounceNet returns a Net over g with a bounce at every node and depth
// copies of one message per directed link queued on it.
func bounceNet(g *graph.Graph, depth int) *Net {
	net := New(g, 1)
	senders := make([]func(graph.NodeID, *lsu.Msg), g.NumNodes())
	for _, id := range g.Nodes() {
		senders[id] = net.Sender(id)
		net.Attach(id, bounce{id, senders})
	}
	for _, l := range g.Links() {
		m := &lsu.Msg{From: l.From}
		for d := 0; d < depth; d++ {
			senders[l.From](l.To, m)
		}
	}
	return net
}

// sf240 is the topology of the ctrl-cold-sf240 benchmark workload in all
// but its seed: 240 routers, 954 directed links.
func sf240() *graph.Graph { return topo.ScaleFree(7, 240, 2, 1e7, 2e-3) }

// BenchmarkStep prices one Step against the number of candidate queues: a
// ring of 8 (16 directed links), sf240 (954) and a 1,000-router scale-free
// graph (3,994). With one message per link every step empties a queue and
// the bounce refills it — the most a step can cost; with 48 no queue ever
// changes state — the least. The file uses nothing a Net did not always
// export, so it runs unchanged in a checkout that predates the ready list.
func BenchmarkStep(b *testing.B) {
	graphs := []*graph.Graph{topo.Ring(8, 1e7, 1e-3), sf240(), topo.ScaleFree(7, 1000, 2, 1e7, 2e-3)}
	for _, g := range graphs {
		for _, mode := range []struct {
			name  string
			depth int
		}{{"turnover", 1}, {"steady", 48}} {
			b.Run(fmt.Sprintf("links=%d/%s", g.NumLinks(), mode.name), func(b *testing.B) {
				net := bounceNet(g, mode.depth)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					net.Step()
				}
			})
		}
	}
}
