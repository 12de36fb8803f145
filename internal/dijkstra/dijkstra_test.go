package dijkstra

import (
	"math"
	"testing"
	"testing/quick"

	"minroute/internal/graph"
	"minroute/internal/rng"
)

// adjView is a simple explicit adjacency for tests.
type adjView struct {
	n   int
	out map[graph.NodeID][]edge
}

type edge struct {
	to   graph.NodeID
	cost float64
}

func (a adjView) NumNodes() int { return a.n }
func (a adjView) VisitOut(u graph.NodeID, visit func(graph.NodeID, float64)) {
	for _, e := range a.out[u] {
		visit(e.to, e.cost)
	}
}

func mkView(n int, edges ...[3]float64) adjView {
	v := adjView{n: n, out: make(map[graph.NodeID][]edge)}
	for _, e := range edges {
		from := graph.NodeID(e[0])
		v.out[from] = append(v.out[from], edge{to: graph.NodeID(e[1]), cost: e[2]})
	}
	return v
}

func TestLine(t *testing.T) {
	v := mkView(3, [3]float64{0, 1, 2}, [3]float64{1, 2, 3})
	r := Run(v, 0)
	if r.Dist[2] != 5 {
		t.Fatalf("dist[2] = %v, want 5", r.Dist[2])
	}
	if r.Parent[2] != 1 || r.Parent[1] != 0 {
		t.Fatalf("parents wrong: %v", r.Parent)
	}
}

func TestUnreachable(t *testing.T) {
	v := mkView(3, [3]float64{0, 1, 1})
	r := Run(v, 0)
	if r.Reachable(2) {
		t.Fatal("node 2 should be unreachable")
	}
	if !math.IsInf(r.Dist[2], 1) {
		t.Fatalf("dist[2] = %v, want +Inf", r.Dist[2])
	}
	if r.PathTo(2) != nil {
		t.Fatal("PathTo(unreachable) not nil")
	}
	if r.NextHop(2) != graph.None {
		t.Fatal("NextHop(unreachable) not None")
	}
}

func TestShorterOfTwoPaths(t *testing.T) {
	// 0->1->3 costs 2; 0->2->3 costs 10.
	v := mkView(4,
		[3]float64{0, 1, 1}, [3]float64{1, 3, 1},
		[3]float64{0, 2, 5}, [3]float64{2, 3, 5})
	r := Run(v, 0)
	if r.Dist[3] != 2 {
		t.Fatalf("dist[3] = %v, want 2", r.Dist[3])
	}
	path := r.PathTo(3)
	want := []graph.NodeID{0, 1, 3}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestTieBreakLowestParent(t *testing.T) {
	// Two equal-cost paths to 3: via 1 and via 2. Parent must be 1.
	v := mkView(4,
		[3]float64{0, 2, 1}, [3]float64{2, 3, 1},
		[3]float64{0, 1, 1}, [3]float64{1, 3, 1})
	r := Run(v, 0)
	if r.Dist[3] != 2 {
		t.Fatalf("dist[3] = %v, want 2", r.Dist[3])
	}
	if r.Parent[3] != 1 {
		t.Fatalf("parent[3] = %v, want 1 (lowest-address tie-break)", r.Parent[3])
	}
}

func TestNextHop(t *testing.T) {
	v := mkView(4, [3]float64{0, 1, 1}, [3]float64{1, 2, 1}, [3]float64{2, 3, 1})
	r := Run(v, 0)
	for _, dst := range []graph.NodeID{1, 2, 3} {
		if nh := r.NextHop(dst); nh != 1 {
			t.Fatalf("NextHop(%d) = %v, want 1", dst, nh)
		}
	}
	if r.NextHop(0) != graph.None {
		t.Fatal("NextHop(src) should be None")
	}
}

func TestZeroCostLinks(t *testing.T) {
	v := mkView(3, [3]float64{0, 1, 0}, [3]float64{1, 2, 0})
	r := Run(v, 0)
	if r.Dist[2] != 0 {
		t.Fatalf("dist[2] = %v, want 0", r.Dist[2])
	}
}

func TestNegativeCostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative cost did not panic")
		}
	}()
	Run(mkView(2, [3]float64{0, 1, -1}), 0)
}

func TestGraphView(t *testing.T) {
	g := graph.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	if err := g.AddDuplex(a, b, 1e6, 0.001); err != nil {
		t.Fatal(err)
	}
	if err := g.AddDuplex(b, c, 1e6, 0.002); err != nil {
		t.Fatal(err)
	}
	r := Run(GraphView{G: g, Cost: func(l *graph.Link) float64 { return l.PropDelay }}, a)
	if got, want := r.Dist[c], 0.003; math.Abs(got-want) > 1e-12 {
		t.Fatalf("dist[c] = %v, want %v", got, want)
	}
}

// bellmanFord is an independent reference implementation for property tests.
func bellmanFord(v View, src graph.NodeID) []float64 {
	n := v.NumNodes()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for u := 0; u < n; u++ {
			if math.IsInf(dist[u], 1) {
				continue
			}
			v.VisitOut(graph.NodeID(u), func(to graph.NodeID, c float64) {
				if nd := dist[u] + c; nd < dist[to] {
					dist[to] = nd
					changed = true
				}
			})
		}
		if !changed {
			break
		}
	}
	return dist
}

func randomView(seed uint64, n int) adjView {
	r := rng.New(seed)
	v := adjView{n: n, out: make(map[graph.NodeID][]edge)}
	for u := 0; u < n; u++ {
		deg := 1 + r.Intn(3)
		for d := 0; d < deg; d++ {
			to := graph.NodeID(r.Intn(n))
			if int(to) == u {
				continue
			}
			v.out[graph.NodeID(u)] = append(v.out[graph.NodeID(u)],
				edge{to: to, cost: float64(1+r.Intn(100)) / 10})
		}
	}
	return v
}

func TestPropertyMatchesBellmanFord(t *testing.T) {
	check := func(seed uint64, n8 uint8) bool {
		n := int(n8%20) + 2
		v := randomView(seed, n)
		src := graph.NodeID(int(seed) % n)
		if src < 0 {
			src = -src
		}
		d := Run(v, src)
		bf := bellmanFord(v, src)
		for i := range bf {
			a, b := d.Dist[i], bf[i]
			if math.IsInf(a, 1) != math.IsInf(b, 1) {
				return false
			}
			if !math.IsInf(a, 1) && math.Abs(a-b) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyParentDistancesConsistent(t *testing.T) {
	// dist[child] >= dist[parent], and each reachable non-src node's path
	// terminates at src.
	check := func(seed uint64, n8 uint8) bool {
		n := int(n8%20) + 2
		v := randomView(seed, n)
		d := Run(v, 0)
		for i := 0; i < n; i++ {
			id := graph.NodeID(i)
			if !d.Reachable(id) || id == 0 {
				continue
			}
			p := d.Parent[id]
			if p == graph.None || d.Dist[id] < d.Dist[p] {
				return false
			}
			path := d.PathTo(id)
			if len(path) == 0 || path[0] != 0 || path[len(path)-1] != id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDijkstra64(b *testing.B) {
	v := randomView(99, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Run(v, 0)
	}
}
