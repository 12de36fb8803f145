package netsvg

import (
	"encoding/xml"
	"math"
	"strings"
	"testing"

	"minroute/internal/graph"
	"minroute/internal/topo"
)

func TestLayoutDeterministic(t *testing.T) {
	g := topo.NET1().Graph
	a := Layout(g, 7, 100)
	b := Layout(g, 7, 100)
	for id := range a {
		if a[id] != b[id] {
			t.Fatalf("layout not deterministic at node %d", id)
		}
	}
	c := Layout(g, 8, 100)
	same := true
	for id := range a {
		if a[id] != c[id] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical layouts")
	}
}

func TestLayoutSpreadsNodes(t *testing.T) {
	g := topo.Ring(6, 1e6, 1e-3)
	pos := Layout(g, 3, 300)
	// No two nodes may collapse onto the same point.
	ids := g.Nodes()
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			a, b := pos[ids[i]], pos[ids[j]]
			if math.Hypot(a[0]-b[0], a[1]-b[1]) < 0.01 {
				t.Fatalf("nodes %d and %d collapsed", ids[i], ids[j])
			}
		}
	}
}

func TestLayoutNeighborsCloserThanFarNodes(t *testing.T) {
	// On a long ring, adjacent nodes should end up nearer each other than
	// antipodal ones.
	g := topo.Ring(10, 1e6, 1e-3)
	pos := Layout(g, 5, 400)
	d := func(a, b graph.NodeID) float64 {
		return math.Hypot(pos[a][0]-pos[b][0], pos[a][1]-pos[b][1])
	}
	if !(d(0, 1) < d(0, 5)) {
		t.Fatalf("adjacent distance %v not below antipodal %v", d(0, 1), d(0, 5))
	}
}

func TestRenderWellFormed(t *testing.T) {
	net := topo.NET1()
	util := map[[2]graph.NodeID]float64{{4, 5}: 0.9, {4, 8}: 0.3}
	out := Render(net.Graph, Options{Utilization: util})
	dec := xml.NewDecoder(strings.NewReader(out))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("not well-formed: %v", err)
		}
	}
	for _, want := range []string{"<svg", "circle", "line", "</svg>"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q", want)
		}
	}
	// Node labels present.
	if !strings.Contains(out, ">0<") || !strings.Contains(out, ">9<") {
		t.Fatal("node labels missing")
	}
}

func TestRenderEscapesNames(t *testing.T) {
	g := graph.New()
	a, b := g.AddNode("a<b"), g.AddNode(`c"d`)
	if err := g.AddDuplex(a, b, 1e6, 0); err != nil {
		t.Fatal(err)
	}
	out := Render(g, Options{})
	if strings.Contains(out, "a<b") {
		t.Fatal("names not escaped")
	}
}

func TestUtilColorRamp(t *testing.T) {
	if utilColor(0) == utilColor(1.0) {
		t.Fatal("idle and saturated links share a color")
	}
}

func TestRenderSingleNode(t *testing.T) {
	g := graph.New()
	g.AddNode("solo")
	out := Render(g, Options{})
	if !strings.Contains(out, "solo") {
		t.Fatal("single-node render broken")
	}
}
