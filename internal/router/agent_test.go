package router

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"minroute/internal/alloc"
	"minroute/internal/graph"
	"minroute/internal/linkcost"
	"minroute/internal/lsu"
	"minroute/internal/rng"
)

// TestAgentImportsNoSimulator holds the seam Host cuts: no file that
// declares the Agent or a method of it imports the event engine or its
// queue, so a host other than the simulator runs the agent as it is.
func TestAgentImportsNoSimulator(t *testing.T) {
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	found := 0
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !declaresAgent(f) {
			continue
		}
		found++
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "minroute/internal/des" || path == "minroute/internal/eventq" {
				t.Errorf("%s declares the agent and imports %s", name, path)
			}
		}
	}
	if found == 0 {
		t.Fatal("no file declares the Agent")
	}
}

// declaresAgent reports whether f declares the Agent type or a method with
// an *Agent receiver.
func declaresAgent(f *ast.File) bool {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.GenDecl:
			for _, s := range d.Specs {
				if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.Name == "Agent" {
					return true
				}
			}
		case *ast.FuncDecl:
			if d.Recv == nil {
				continue
			}
			if star, ok := d.Recv.List[0].Type.(*ast.StarExpr); ok {
				if id, ok := star.X.(*ast.Ident); ok && id.Name == "Agent" {
					return true
				}
			}
		}
	}
	return false
}

// fakeHost hosts an agent by hand: a clock and packet counters the test
// sets, one link model for every neighbor (1 Mb/s and 1 ms, so μ = 125
// packets/s at 8000-bit packets), and a record of what the agent armed,
// sent and published.
type fakeHost struct {
	now     float64
	packets map[graph.NodeID]int64
	armed   []float64      // the delay of each timer armed, in order
	lsus    int            // LSUs sent
	unacked []graph.NodeID // the neighbor of each entry-bearing LSU not yet acknowledged
	pubJ    graph.NodeID   // the destination, φ and successor set last published
	pubPhi  alloc.Params
	pubSucc []graph.NodeID
}

const fakeCapacity, fakeProp = 1e6, 1e-3

func (h *fakeHost) Now() float64 { return h.now }

func (h *fakeHost) After(_ Timer, d float64, fn func()) {
	if fn != nil {
		h.armed = append(h.armed, d)
	}
}

func (h *fakeHost) Link(k graph.NodeID) (float64, float64, int64) {
	return fakeCapacity, fakeProp, h.packets[k]
}

func (h *fakeHost) SendLSU(to graph.NodeID, m *lsu.Msg) {
	h.lsus++
	if len(m.Entries) > 0 {
		h.unacked = append(h.unacked, to)
	}
}

func (h *fakeHost) Publish(j graph.NodeID, phi alloc.Params, succ []graph.NodeID) {
	h.pubJ, h.pubPhi, h.pubSucc = j, phi.Clone(), slices.Clone(succ)
}

// ackAll plays the neighbors' half of MPDA's synchronisation: it
// acknowledges every entry-bearing LSU the agent sent, and those the
// acknowledgements make it send, until none is outstanding.
func (h *fakeHost) ackAll(a *Agent) {
	for len(h.unacked) > 0 {
		k := h.unacked[0]
		h.unacked = h.unacked[1:]
		a.HandleLSU(&lsu.Msg{From: k, Ack: true})
	}
}

// TestAgentOnFakeHost runs the agent with no simulator under it: router 0
// with neighbors 1 and 2, each reporting a link to 3, so that S_3 = {1, 2}.
// A Ts tick prices a link's packets over Ts exactly as measure does and
// moves the short-term cost shortSmoothing of the way there; a Tl tick
// changes the cost MPDA advertises, and so floods, only when the quantized
// cost moved; and the AH step of the Ts tick keeps Property 1.
func TestAgentOnFakeHost(t *testing.T) {
	cfg := Defaults()
	h := &fakeHost{packets: map[graph.NodeID]int64{}}
	a := NewAgent(0, 4, cfg, h, rng.New(1))
	a.attach(1)
	a.attach(2)
	a.Start(func(graph.NodeID) bool { return true })
	if len(h.armed) != 2 || h.armed[0] >= cfg.Ts || h.armed[1] >= cfg.Tl {
		t.Fatalf("Start armed %v, want a Ts and a Tl timer phased inside their periods", h.armed)
	}
	for _, k := range []graph.NodeID{1, 2} {
		a.HandleLSU(&lsu.Msg{From: k, Entries: []lsu.Entry{{Op: lsu.OpAdd, Head: k, Tail: 3, Cost: 0.05}}})
	}
	h.ackAll(a)
	r := a.Protocol()
	if s := r.Successors(3); r.Active() || !slices.Equal(s, []graph.NodeID{1, 2}) {
		t.Fatalf("after the reports: ACTIVE %v, S_3 = %v; want PASSIVE over [1 2]", r.Active(), s)
	}
	mu := linkcost.KnownMu(fakeCapacity, cfg.MeanPacketBits)
	idle := quantizeCost(linkcost.MM1Marginal(0, mu, fakeProp))

	// A Tl tick over a window in which no link carried a packet: the
	// quantized costs stand, so MPDA hears of no change and nothing is sent.
	h.now = cfg.Tl
	sent := h.lsus
	a.tlTick()
	for _, k := range []graph.NodeID{1, 2} {
		if c, _ := r.Tables().AdjCost(k); c != idle {
			t.Fatalf("idle Tl tick: link to %d advertised at %v, want %v", k, c, idle)
		}
	}
	if h.lsus != sent {
		t.Fatalf("idle Tl tick sent %d LSUs, want none", h.lsus-sent)
	}

	// A Ts tick after link 1 carried n packets and link 2 none.
	const n = 100
	h.packets[1] = n
	before := a.Phi(3).Clone()
	short1, short2 := a.link(1).short, a.link(2).short
	a.tsTick()
	c, ok := a.measure(1, n, cfg.Ts)
	if want := linkcost.MM1Marginal(n/cfg.Ts, mu, fakeProp); !ok || c != want {
		t.Fatalf("measure(%d packets over Ts) = %v, %v; want %v", n, c, ok, want)
	}
	if want := short1 + shortSmoothing*(c-short1); a.link(1).short != want {
		t.Fatalf("link 1 short-term cost %v after the tick, want %v", a.link(1).short, want)
	}
	if a.link(2).short != short2 {
		t.Fatalf("idle link 2 short-term cost moved %v -> %v", short2, a.link(2).short)
	}
	if last := h.armed[len(h.armed)-1]; last != cfg.Ts {
		t.Fatalf("the Ts tick re-armed after %v, want %v", last, cfg.Ts)
	}
	if h.pubJ != 3 {
		t.Fatalf("the Ts tick last published φ_%d, want φ_3", h.pubJ)
	}
	if err := alloc.Validate(h.pubPhi, h.pubSucc); err != nil {
		t.Fatalf("φ_3 after AH: %v", err)
	}
	if !(h.pubPhi[2] > before[2]) {
		t.Fatalf("AH took φ_3 from %v to %v, want traffic moved off the loaded link 1", before, h.pubPhi)
	}

	// A Tl tick after link 1 carried those packets in its window: its
	// quantized cost moved, so MPDA advertises the new one and floods; link
	// 2's stands.
	h.now = 2 * cfg.Tl
	sent = h.lsus
	a.tlTick()
	if c1, _ := r.Tables().AdjCost(1); c1 == idle || c1 != quantizeCost(a.link(1).long.Value()) {
		t.Fatalf("loaded Tl tick: link to 1 advertised at %v, long-term cost %v", c1, a.link(1).long.Value())
	}
	if c2, _ := r.Tables().AdjCost(2); c2 != idle {
		t.Fatalf("loaded Tl tick: idle link to 2 advertised at %v, want %v", c2, idle)
	}
	if h.lsus == sent {
		t.Fatal("the loaded Tl tick moved a cost and sent no LSU")
	}
}
