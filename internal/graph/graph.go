// Package graph models the network topology G = (N, L) of the paper: a set
// of routers connected by point-to-point links that are bidirectional but may
// have different characteristics in each direction. Links carry a capacity
// (bits per second) and a propagation delay (seconds); dynamic quantities
// such as flows and marginal-delay costs live in higher layers.
package graph

import (
	"fmt"
	"sort"
	"strings"
)

// NodeID identifies a router. IDs double as the router "address" that the
// paper uses for deterministic tie-breaking ("ties are broken in favor of
// the neighbor with the lowest address").
type NodeID int32

// None is the sentinel for "no node".
const None NodeID = -1

// Link is one direction of a physical link. From and To identify the
// endpoints; Capacity is in bits per second; PropDelay is in seconds.
type Link struct {
	From      NodeID
	To        NodeID
	Capacity  float64
	PropDelay float64
}

// Graph is a directed multigraph restricted to at most one link per ordered
// node pair. The zero value is an empty graph ready for use via AddNode.
type Graph struct {
	names []string
	index map[string]NodeID
	// adj[i] is sorted by neighbor ID for deterministic iteration.
	adj map[NodeID][]*Link
	// links indexes adj by ordered pair for O(1) lookup.
	links map[[2]NodeID]*Link
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		index: make(map[string]NodeID),
		adj:   make(map[NodeID][]*Link),
		links: make(map[[2]NodeID]*Link),
	}
}

// AddNode adds a router with the given name and returns its ID. Adding a
// name twice returns the existing ID.
func (g *Graph) AddNode(name string) NodeID {
	if id, ok := g.index[name]; ok {
		return id
	}
	id := NodeID(len(g.names))
	g.names = append(g.names, name)
	g.index[name] = id
	if g.adj[id] == nil {
		g.adj[id] = nil
	}
	return id
}

// NumNodes reports the number of routers.
func (g *Graph) NumNodes() int { return len(g.names) }

// NumLinks reports the number of directed links.
func (g *Graph) NumLinks() int { return len(g.links) }

// Name returns the name of node id, or a numeric placeholder when unknown.
func (g *Graph) Name(id NodeID) string {
	if int(id) < 0 || int(id) >= len(g.names) {
		return fmt.Sprintf("node%d", id)
	}
	return g.names[id]
}

// Lookup resolves a node name to its ID.
func (g *Graph) Lookup(name string) (NodeID, bool) {
	id, ok := g.index[name]
	return id, ok
}

// MustLookup resolves a node name and panics when absent. Intended for
// hand-built topologies where a typo is a programming error.
func (g *Graph) MustLookup(name string) NodeID {
	id, ok := g.index[name]
	if !ok {
		panic("graph: unknown node " + name)
	}
	return id
}

// Nodes returns all node IDs in ascending order.
func (g *Graph) Nodes() []NodeID {
	out := make([]NodeID, len(g.names))
	for i := range out {
		out[i] = NodeID(i)
	}
	return out
}

// AddLink adds a directed link. It panics when either endpoint is unknown or
// when the link already exists, and returns an error for invalid parameters.
func (g *Graph) AddLink(from, to NodeID, capacity, propDelay float64) error {
	if !g.valid(from) || !g.valid(to) {
		panic("graph: AddLink with unknown endpoint")
	}
	if from == to {
		return fmt.Errorf("graph: self link at %s", g.Name(from))
	}
	if capacity <= 0 {
		return fmt.Errorf("graph: non-positive capacity on %s->%s", g.Name(from), g.Name(to))
	}
	if propDelay < 0 {
		return fmt.Errorf("graph: negative propagation delay on %s->%s", g.Name(from), g.Name(to))
	}
	key := [2]NodeID{from, to}
	if _, dup := g.links[key]; dup {
		return fmt.Errorf("graph: duplicate link %s->%s", g.Name(from), g.Name(to))
	}
	l := &Link{From: from, To: to, Capacity: capacity, PropDelay: propDelay}
	g.links[key] = l
	g.adj[from] = insertSorted(g.adj[from], l)
	return nil
}

// AddDuplex adds both directions of a symmetric link.
func (g *Graph) AddDuplex(a, b NodeID, capacity, propDelay float64) error {
	if err := g.AddLink(a, b, capacity, propDelay); err != nil {
		return err
	}
	return g.AddLink(b, a, capacity, propDelay)
}

// RemoveLink deletes the directed link from->to, reporting whether it
// existed. Used by failure-injection scenarios.
func (g *Graph) RemoveLink(from, to NodeID) bool {
	key := [2]NodeID{from, to}
	if _, ok := g.links[key]; !ok {
		return false
	}
	delete(g.links, key)
	nbrs := g.adj[from]
	for i, l := range nbrs {
		if l.To == to {
			g.adj[from] = append(nbrs[:i:i], nbrs[i+1:]...)
			break
		}
	}
	return true
}

// Link returns the directed link from->to.
func (g *Graph) Link(from, to NodeID) (*Link, bool) {
	l, ok := g.links[[2]NodeID{from, to}]
	return l, ok
}

// Neighbors returns the IDs reachable over one outgoing link from id, in
// ascending order. The slice is freshly allocated.
func (g *Graph) Neighbors(id NodeID) []NodeID {
	nbrs := g.adj[id]
	out := make([]NodeID, len(nbrs))
	for i, l := range nbrs {
		out[i] = l.To
	}
	return out
}

// OutLinks returns the outgoing links of id in ascending neighbor order.
// The returned slice must not be mutated.
func (g *Graph) OutLinks(id NodeID) []*Link {
	return g.adj[id]
}

// Links returns every directed link, ordered by (from, to).
func (g *Graph) Links() []*Link {
	out := make([]*Link, 0, len(g.links))
	//lint:maporder-ok links are collected and sorted by (from, to) before any use
	for _, l := range g.links {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New()
	c.names = append([]string(nil), g.names...)
	for name, id := range g.index {
		c.index[name] = id
	}
	for _, l := range g.Links() {
		cp := *l
		c.links[[2]NodeID{l.From, l.To}] = &cp
		c.adj[l.From] = append(c.adj[l.From], &cp)
	}
	return c
}

// Validate checks structural health: symmetric connectivity (each link has a
// reverse link, as the paper assumes bidirectional links) and a single
// connected component. It returns a descriptive error for the first problem.
func (g *Graph) Validate() error {
	if g.NumNodes() == 0 {
		return fmt.Errorf("graph: empty")
	}
	// Sorted order: with several asymmetric links, always name the same one.
	for _, l := range g.Links() {
		if _, ok := g.links[[2]NodeID{l.To, l.From}]; !ok {
			return fmt.Errorf("graph: link %s->%s has no reverse", g.Name(l.From), g.Name(l.To))
		}
	}
	if !g.Connected() {
		return fmt.Errorf("graph: not connected")
	}
	return nil
}

// Connected reports whether every node is reachable from node 0 over
// directed links.
func (g *Graph) Connected() bool {
	if g.NumNodes() == 0 {
		return false
	}
	seen := make([]bool, g.NumNodes())
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, l := range g.adj[n] {
			if !seen[l.To] {
				seen[l.To] = true
				count++
				stack = append(stack, l.To)
			}
		}
	}
	return count == g.NumNodes()
}

// Degree returns the out-degree of id.
func (g *Graph) Degree(id NodeID) int { return len(g.adj[id]) }

// Diameter returns the hop-count diameter (longest shortest path in hops).
// It returns -1 for a disconnected graph.
func (g *Graph) Diameter() int {
	n := g.NumNodes()
	diam := 0
	for s := 0; s < n; s++ {
		dist := g.bfs(NodeID(s))
		for _, d := range dist {
			if d < 0 {
				return -1
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

func (g *Graph) bfs(src NodeID) []int {
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, l := range g.adj[n] {
			if dist[l.To] < 0 {
				dist[l.To] = dist[n] + 1
				queue = append(queue, l.To)
			}
		}
	}
	return dist
}

// String renders a compact multi-line description, useful in logs and the
// topology inspection tool.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph: %d nodes, %d directed links\n", g.NumNodes(), g.NumLinks())
	for _, l := range g.Links() {
		fmt.Fprintf(&b, "  %s -> %s cap=%.0fbps prop=%.3fms\n",
			g.Name(l.From), g.Name(l.To), l.Capacity, l.PropDelay*1e3)
	}
	return b.String()
}

func (g *Graph) valid(id NodeID) bool {
	return int(id) >= 0 && int(id) < len(g.names)
}

func insertSorted(nbrs []*Link, l *Link) []*Link {
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i].To >= l.To })
	nbrs = append(nbrs, nil)
	copy(nbrs[i+1:], nbrs[i:])
	nbrs[i] = l
	return nbrs
}
