package graph

import (
	"strings"
	"testing"
	"testing/quick"

	"minroute/internal/rng"
)

func triangle(t *testing.T) *Graph {
	t.Helper()
	g := New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	for _, pair := range [][2]NodeID{{a, b}, {b, c}, {a, c}} {
		if err := g.AddDuplex(pair[0], pair[1], 1e7, 1e-3); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestAddNodeIdempotent(t *testing.T) {
	g := New()
	a := g.AddNode("x")
	b := g.AddNode("x")
	if a != b {
		t.Fatalf("AddNode not idempotent: %d vs %d", a, b)
	}
	if g.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", g.NumNodes())
	}
}

func TestLookup(t *testing.T) {
	g := triangle(t)
	id, ok := g.Lookup("b")
	if !ok || g.Name(id) != "b" {
		t.Fatalf("Lookup(b) = %d,%v", id, ok)
	}
	if _, ok := g.Lookup("zz"); ok {
		t.Fatal("Lookup of missing node succeeded")
	}
	if g.MustLookup("c") != 2 {
		t.Fatal("MustLookup wrong id")
	}
}

func TestMustLookupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustLookup on missing node did not panic")
		}
	}()
	triangle(t).MustLookup("nope")
}

func TestAddLinkErrors(t *testing.T) {
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	if err := g.AddLink(a, a, 1, 0); err == nil {
		t.Error("self link accepted")
	}
	if err := g.AddLink(a, b, 0, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if err := g.AddLink(a, b, 1, -1); err == nil {
		t.Error("negative delay accepted")
	}
	if err := g.AddLink(a, b, 1, 0); err != nil {
		t.Fatalf("valid link rejected: %v", err)
	}
	if err := g.AddLink(a, b, 2, 0); err == nil {
		t.Error("duplicate link accepted")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New()
	ids := make([]NodeID, 5)
	for i := range ids {
		ids[i] = g.AddNode(strings.Repeat("n", i+1))
	}
	// Add in scrambled order; Neighbors must come back ascending.
	for _, j := range []int{3, 1, 4, 2} {
		if err := g.AddLink(ids[0], ids[j], 1e6, 0); err != nil {
			t.Fatal(err)
		}
	}
	nbrs := g.Neighbors(ids[0])
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i-1] >= nbrs[i] {
			t.Fatalf("neighbors not sorted: %v", nbrs)
		}
	}
	if len(nbrs) != 4 {
		t.Fatalf("len(neighbors) = %d", len(nbrs))
	}
}

func TestRemoveLink(t *testing.T) {
	g := triangle(t)
	a, b := g.MustLookup("a"), g.MustLookup("b")
	if !g.RemoveLink(a, b) {
		t.Fatal("RemoveLink failed")
	}
	if g.RemoveLink(a, b) {
		t.Fatal("RemoveLink on missing link reported true")
	}
	if _, ok := g.Link(a, b); ok {
		t.Fatal("link still present after removal")
	}
	if _, ok := g.Link(b, a); !ok {
		t.Fatal("reverse link unexpectedly removed")
	}
	if got := len(g.Neighbors(a)); got != 1 {
		t.Fatalf("neighbors after removal = %d, want 1", got)
	}
}

func TestValidate(t *testing.T) {
	g := triangle(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	a, b := g.MustLookup("a"), g.MustLookup("b")
	g.RemoveLink(a, b)
	if err := g.Validate(); err == nil {
		t.Fatal("asymmetric graph accepted")
	}
}

func TestValidateDisconnected(t *testing.T) {
	g := New()
	g.AddNode("a")
	g.AddNode("b")
	if err := g.Validate(); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestConnectedEmpty(t *testing.T) {
	if New().Connected() {
		t.Fatal("empty graph reported connected")
	}
}

func TestDiameterTriangle(t *testing.T) {
	if d := triangle(t).Diameter(); d != 1 {
		t.Fatalf("triangle diameter = %d, want 1", d)
	}
}

func TestDiameterPath(t *testing.T) {
	g := New()
	prev := g.AddNode("n0")
	for i := 1; i < 5; i++ {
		cur := g.AddNode("n" + string(rune('0'+i)))
		if err := g.AddDuplex(prev, cur, 1e6, 0); err != nil {
			t.Fatal(err)
		}
		prev = cur
	}
	if d := g.Diameter(); d != 4 {
		t.Fatalf("path diameter = %d, want 4", d)
	}
}

func TestDiameterDisconnected(t *testing.T) {
	g := New()
	g.AddNode("a")
	g.AddNode("b")
	if d := g.Diameter(); d != -1 {
		t.Fatalf("disconnected diameter = %d, want -1", d)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := triangle(t)
	c := g.Clone()
	a, b := g.MustLookup("a"), g.MustLookup("b")
	g.RemoveLink(a, b)
	if _, ok := c.Link(a, b); !ok {
		t.Fatal("clone affected by mutation of original")
	}
	l, _ := c.Link(b, a)
	l.Capacity = 123
	orig, _ := g.Link(b, a)
	if orig.Capacity == 123 {
		t.Fatal("original affected by mutation of clone")
	}
}

func TestLinksOrdered(t *testing.T) {
	g := triangle(t)
	links := g.Links()
	if len(links) != 6 {
		t.Fatalf("len(links) = %d, want 6", len(links))
	}
	for i := 1; i < len(links); i++ {
		a, b := links[i-1], links[i]
		if a.From > b.From || (a.From == b.From && a.To >= b.To) {
			t.Fatalf("links not ordered at %d", i)
		}
	}
}

func TestStringMentionsNodes(t *testing.T) {
	s := triangle(t).String()
	for _, name := range []string{"a", "b", "c"} {
		if !strings.Contains(s, name) {
			t.Fatalf("String() missing node %s: %s", name, s)
		}
	}
}

// randomConnected builds a random connected symmetric graph for property
// tests: a spanning path plus random extra duplex links.
func randomConnected(seed uint64, n int) *Graph {
	r := rng.New(seed)
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode("n" + itoa(i))
	}
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		_ = g.AddDuplex(NodeID(perm[i-1]), NodeID(perm[i]), 1e6+float64(r.Intn(9))*1e6, float64(r.Intn(10))*1e-4)
	}
	extra := r.Intn(n * 2)
	for i := 0; i < extra; i++ {
		a, b := NodeID(r.Intn(n)), NodeID(r.Intn(n))
		if a == b {
			continue
		}
		if _, ok := g.Link(a, b); ok {
			continue
		}
		_ = g.AddDuplex(a, b, 1e6+float64(r.Intn(9))*1e6, float64(r.Intn(10))*1e-4)
	}
	return g
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var digits []byte
	for i > 0 {
		digits = append([]byte{byte('0' + i%10)}, digits...)
		i /= 10
	}
	return string(digits)
}

func TestPropertyRandomGraphsValid(t *testing.T) {
	check := func(seed uint64, n8 uint8) bool {
		n := int(n8%14) + 2
		g := randomConnected(seed, n)
		return g.Validate() == nil && g.Diameter() >= 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
