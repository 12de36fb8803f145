package node

import (
	"bytes"
	"runtime"
	"testing"

	"minroute/internal/graph"
	"minroute/internal/mpda"
	"minroute/internal/protonet"
	"minroute/internal/rng"
	"minroute/internal/telemetry"
	"minroute/internal/topo"
	"minroute/internal/transport"
)

// steppedLane is one end of a link whose datagrams nobody reads: every
// write joins its network's pending list, addressed to the far end's
// session, for the test to deliver when it chooses.
type steppedLane struct {
	net  *steppedNet
	node *Node
	s    *session
	peer *steppedLane
}

func (l *steppedLane) WritePacket(b []byte) error {
	l.net.pending = append(l.net.pending, delivery{to: l.peer, dgram: append([]byte(nil), b...)})
	return nil
}

// ReadPacket is never called: no reader runs.
func (l *steppedLane) ReadPacket([]byte) (int, error) { return 0, transport.ErrClosed }

func (l *steppedLane) Close() error { return nil }

type delivery struct {
	to    *steppedLane
	dgram []byte
}

type steppedNet struct{ pending []delivery }

// steppedBoot boots g with every session stepped by this goroutine alone:
// lanes attached through AddPeer's own call with no reader started,
// pending datagrams delivered one at a time in an order drawn from seed,
// and the virtual clock advanced only while nothing is pending, until the
// mesh has been eligible under the settle rule past a few heartbeats. It
// returns the trace as JSONL and the mesh hash.
func steppedBoot(t *testing.T, g *graph.Graph, seed uint64) (jsonl []byte, hash string) {
	t.Helper()
	nn := g.NumNodes()
	clk := transport.NewVirtualClock()
	tr := NewTrace(telemetry.NewTracer(nn, 0))
	degree := make([]int, nn)
	for _, l := range g.Links() {
		degree[l.From]++
	}
	m := &Mesh{Nodes: make([]*Node, nn)}
	for i := range m.Nodes {
		n, err := New(Config{ID: graph.NodeID(i), Nodes: nn, Clock: clk, Trace: tr, ExpectPeers: degree[i]})
		if err != nil {
			t.Fatal(err)
		}
		m.Nodes[i] = n
	}
	defer m.Close()
	costTo := func(from graph.NodeID) func(graph.NodeID) (float64, bool) {
		return func(to graph.NodeID) (float64, bool) {
			l, ok := g.Link(from, to)
			if !ok {
				return 0, false
			}
			return topo.PropCost(l), true
		}
	}
	net := &steppedNet{}
	for _, l := range g.Links() {
		if l.From >= l.To {
			continue
		}
		a := &steppedLane{net: net, node: m.Nodes[l.From]}
		b := &steppedLane{net: net, node: m.Nodes[l.To], peer: a}
		a.peer = b
		a.s = a.node.attach(a, costTo(l.From), transport.ARQConfig{})
		b.s = b.node.attach(b, costTo(l.To), transport.ARQConfig{})
	}
	r := rng.New(seed)
	const horizon, limit = 1.0, 60.0
	for {
		if k := len(net.pending); k > 0 {
			i := r.Intn(k)
			d := net.pending[i]
			net.pending[i] = net.pending[k-1]
			net.pending = net.pending[:k-1]
			d.to.node.receive(d.to.s, d.dgram)
			continue
		}
		if steady, drained, _ := m.poll(); steady && drained && clk.Now() >= horizon {
			break
		}
		if clk.Now() > limit {
			t.Fatalf("seed %d: no settled mesh by t=%gs", seed, limit)
		}
		clk.Advance(0.01)
	}
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), m.Hash()
}

// protonetHash is the digest of the routers' state after protonet runs the
// same MPDA code on g over its emulated reliable queues to quiescence.
func protonetHash(g *graph.Graph) string {
	nn := g.NumNodes()
	net := protonet.New(g, 1)
	var state []byte
	routers := make([]*mpda.Router, nn)
	for i := range routers {
		routers[i] = mpda.NewRouter(graph.NodeID(i), nn, net.Sender(graph.NodeID(i)))
		net.Attach(graph.NodeID(i), routers[i])
	}
	net.BringUpAll(topo.PropCost)
	net.Run(1 << 24)
	for _, r := range routers {
		state = r.AppendState(state)
	}
	return mpda.Digest(state)
}

// TestSteppedMeshDeterministic is what one lock per node and no goroutine
// per session buy: with the readers replaced by one loop that delivers
// datagrams in a seeded order and a virtual clock, a live boot replays
// byte for byte — its whole event trace, under GOMAXPROCS 1 and 2 — and
// every delivery order reaches protonet's state (Theorem 4: the converged
// state does not depend on the schedule).
func TestSteppedMeshDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"net1", topo.NET1().Graph},
		{"sf160", topo.ScaleFree(1, 160, 2, 1e7, 2e-3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "sf160" && testing.Short() {
				t.Skip("-short skips the 160-router boots")
			}
			want := protonetHash(tc.g)
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			var first []byte
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				trace, hash := steppedBoot(t, tc.g, 1)
				if hash != want {
					t.Fatalf("GOMAXPROCS=%d: mesh hash %s, protonet %s", procs, hash, want)
				}
				if first == nil {
					first = trace
				} else if !bytes.Equal(trace, first) {
					t.Fatalf("seed 1 replayed a different trace under GOMAXPROCS=%d (%d vs %d bytes)", procs, len(trace), len(first))
				}
			}
			if len(first) == 0 {
				t.Fatal("empty trace")
			}
			trace, hash := steppedBoot(t, tc.g, 2)
			if hash != want {
				t.Fatalf("seed 2: mesh hash %s, protonet %s", hash, want)
			}
			if bytes.Equal(trace, first) {
				t.Fatal("seed 2 replayed seed 1's trace: the delivery order is not the seed's")
			}
		})
	}
}
