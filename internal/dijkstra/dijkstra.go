// Package dijkstra implements Dijkstra's shortest-path-first algorithm with
// the deterministic tie-breaking the paper requires: "because there are
// potentially many shortest-path trees, ties should be broken consistently
// during the run of Dijkstra's algorithm". Ties are broken in favor of the
// lower-address parent, matching the "lowest address neighbor" convention
// used throughout PDA and MPDA.
//
// The algorithm consumes an abstract adjacency view so that it can run both
// on the ground-truth topology (internal/graph) and on the partial topology
// tables routers assemble from LSU messages (internal/pda).
//
// Run computes a tree from nothing; Scratch.Repair keeps one (Labels) current
// while its graph changes, for the price of the subtrees a change touched:
// same heap, same tie rule, same bits. It finds the links entering a cut
// subtree through InView.VisitIn, so its seed costs what the subtree does,
// not what the graph does.
package dijkstra

import (
	"math"

	"minroute/internal/graph"
)

// Inf is the distance assigned to unreachable nodes.
var Inf = math.Inf(1)

// View is the read-only weighted-graph interface Dijkstra consumes.
type View interface {
	// NumNodes returns the size of the ID space; node IDs are dense in
	// [0, NumNodes).
	NumNodes() int
	// VisitOut calls visit for every outgoing link u->v with cost c.
	// Costs must be non-negative.
	VisitOut(u graph.NodeID, visit func(v graph.NodeID, cost float64))
}

// InView is a View that also lists the links into a node: what Repair
// seeds a subtree that lost its labels from.
type InView interface {
	View
	// VisitIn calls visit for every incoming link u->v with cost c.
	VisitIn(v graph.NodeID, visit func(u graph.NodeID, cost float64))
}

// Result holds single-source shortest-path distances and the shortest-path
// tree, indexed densely by NodeID.
type Result struct {
	Src    graph.NodeID
	Dist   []float64
	Parent []graph.NodeID
}

// Scratch is the reusable working memory of one Dijkstra caller: the heap,
// the finalized set, and the result vectors. The zero value is ready. The
// Result a Scratch returns — and its Dist and Parent vectors — belong to
// the Scratch and are overwritten by its next Run; a caller that keeps
// distances across runs copies them out.
type Scratch struct {
	res   Result
	heap  distHeap
	done  []bool
	u     graph.NodeID // node being expanded; read by the link visitors
	relax func(to graph.NodeID, cost float64)

	// Repair's: the labels under repair, the unlabelled node being seeded,
	// its link visitors (bound once, like relax), the times it gave the job
	// to Run.
	l                   *Labels
	x                   graph.NodeID
	unlabel, seed, mend func(to graph.NodeID, cost float64)
	fallbacks           int
}

// Run computes shortest paths from src over the view into fresh vectors the
// caller owns.
func Run(v View, src graph.NodeID) *Result { return new(Scratch).Run(v, src) }

// Run computes shortest paths from src over the view. See Scratch for who
// owns the result.
func (s *Scratch) Run(v View, src graph.NodeID) *Result {
	n := v.NumNodes()
	if cap(s.done) < n {
		s.res.Dist = make([]float64, n)
		s.res.Parent = make([]graph.NodeID, n)
		s.done = make([]bool, n)
	}
	if s.relax == nil {
		s.relax = s.relaxLink // bound once: a per-node closure would allocate
	}
	res := &s.res
	res.Src, res.Dist, res.Parent, s.done = src, res.Dist[:n], res.Parent[:n], s.done[:n]
	for i := range res.Dist {
		res.Dist[i] = Inf
		res.Parent[i] = graph.None
		s.done[i] = false
	}
	if int(src) < 0 || int(src) >= n {
		return res
	}
	res.Dist[src] = 0

	// Lazy-deletion binary heap: duplicates allowed, finalized nodes skipped.
	h := &s.heap
	h.items = h.items[:0]
	h.push(item{node: src, dist: 0})
	for h.len() > 0 {
		s.u = h.pop().node
		if s.done[s.u] {
			continue
		}
		s.done[s.u] = true
		v.VisitOut(s.u, s.relax)
	}
	return res
}

// relaxLink offers the link s.u→to to the tentative tree.
func (s *Scratch) relaxLink(to graph.NodeID, cost float64) {
	if cost < 0 {
		panic("dijkstra: negative link cost")
	}
	if s.done[to] {
		return
	}
	nd := s.res.Dist[s.u] + cost
	if offer(s.res.Dist, s.res.Parent, to, s.u, nd) {
		s.heap.push(item{node: to, dist: nd})
	}
}

// offer is the one relaxation rule: node to, reachable at distance nd through
// u, takes that label when nd is shorter than its distance (reported: its
// own links must be looked at again), or equal and u the lower-address parent.
func offer(dist []float64, parent []graph.NodeID, to, u graph.NodeID, nd float64) bool {
	switch {
	case nd < dist[to]:
		dist[to], parent[to] = nd, u
		return true
	// An exact tie only: a tolerant one would re-parent across different path sums.
	case nd == dist[to] && u < parent[to]:
		parent[to] = u
	}
	return false
}

// Reachable reports whether id has a finite distance.
func (r *Result) Reachable(id graph.NodeID) bool {
	return int(id) >= 0 && int(id) < len(r.Dist) && !math.IsInf(r.Dist[id], 1)
}

// PathTo returns the node sequence src..id along the shortest-path tree,
// or nil when id is unreachable.
func (r *Result) PathTo(id graph.NodeID) []graph.NodeID {
	if !r.Reachable(id) {
		return nil
	}
	var rev []graph.NodeID
	for at := id; at != graph.None; at = r.Parent[at] {
		rev = append(rev, at)
		if at == r.Src {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// NextHop returns the first hop from src toward id along the tree, or
// graph.None when unreachable or id == src.
func (r *Result) NextHop(id graph.NodeID) graph.NodeID {
	if !r.Reachable(id) || id == r.Src {
		return graph.None
	}
	at := id
	for r.Parent[at] != r.Src {
		at = r.Parent[at]
		if at == graph.None {
			return graph.None
		}
	}
	return at
}

type item struct {
	node graph.NodeID
	dist float64
}

type distHeap struct{ items []item }

func (h *distHeap) len() int { return len(h.items) }

func (h *distHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	// Pop lower-address nodes first among equals so parent updates settle
	// deterministically.
	return a.node < b.node
}

func (h *distHeap) push(it item) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *distHeap) pop() item {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		left := 2*i + 1
		if left >= last {
			break
		}
		min := left
		if right := left + 1; right < last && h.less(right, left) {
			min = right
		}
		if !h.less(min, i) {
			break
		}
		h.items[i], h.items[min] = h.items[min], h.items[i]
		i = min
	}
	return top
}

// GraphView adapts internal/graph.Graph plus a cost function to the View
// interface. Cost returns the routing cost of a link (typically its marginal
// delay); it must be non-negative.
type GraphView struct {
	G    *graph.Graph
	Cost func(l *graph.Link) float64
}

// NumNodes implements View.
func (gv GraphView) NumNodes() int { return gv.G.NumNodes() }

// VisitOut implements View.
func (gv GraphView) VisitOut(u graph.NodeID, visit func(graph.NodeID, float64)) {
	for _, l := range gv.G.OutLinks(u) {
		visit(l.To, gv.Cost(l))
	}
}
