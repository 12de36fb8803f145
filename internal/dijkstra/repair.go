package dijkstra

import (
	"math"

	"minroute/internal/graph"
)

// Labels is a shortest-path tree kept while its graph changes: what Run
// computes from nothing, Repair brings up to date. Dist and Parent are as in
// Result; the caller makes them and starts them at the tree of a graph
// without links — Inf and graph.None everywhere, and Dist[src] = 0.
type Labels struct {
	Dist   []float64
	Parent []graph.NodeID

	// Moved lists the nodes whose label the last Repair wrote, each once, in
	// no particular order; WasDist and WasParent, parallel to it, hold the
	// label each had before. A node listed may have ended where it began.
	Moved     []graph.NodeID
	WasDist   []float64
	WasParent []graph.NodeID
	noted     []bool // noted[x]: x is in Moved

	// loose: some link out of a labelled node does not lengthen the path it
	// extends, so Run's answer is not a function of the graph alone.
	loose bool
}

// note lists x, about to be written, with the label it still has.
func (l *Labels) note(x graph.NodeID) {
	if !l.noted[x] {
		l.noted[x] = true
		l.Moved = append(l.Moved, x)
		l.WasDist = append(l.WasDist, l.Dist[x])
		l.WasParent = append(l.WasParent, l.Parent[x])
	}
}

// Repair turns l from the tree Run computes from src over what v was into
// the tree it computes over what v is, bit for bit. The caller says what
// changed in between: heads are the nodes with a link added, removed or
// re-priced, and cut the nodes whose tree link — the one from their Parent —
// was removed or re-priced.
//
// The subtrees under cut lose their labels (a node's children are the tails
// of its links that name it Parent), which leaves every label an upper bound;
// the links entering them from nodes that kept a label — found through the
// in-links of the unlabelled nodes, so the seed costs what the subtrees
// cost — and every link of heads are then offered by Run's rule and the heap
// drained in Run's order. Where every link lengthens the path it extends —
// dist + cost > dist — Run's answer is a function of the graph alone (Dist
// the least left-to-right path sum, Parent the lowest-address in-neighbor
// attaining it), so this is that answer. Where one does not (zero cost, a
// cost the sum absorbs, NaN) it also depends on the order nodes left Run's
// heap: the first such link met hands the job to Run — observed, not
// configured — as does every Repair until a Run has met none.
func (s *Scratch) Repair(v InView, src graph.NodeID, l *Labels, cut, heads []graph.NodeID) {
	if s.mend == nil {
		s.unlabel, s.seed, s.mend = s.unlabelChild, s.seedLink, s.mendLink
	}
	if l.noted == nil {
		l.noted = make([]bool, len(l.Dist))
	}
	for _, x := range l.Moved {
		l.noted[x] = false
	}
	l.Moved, l.WasDist, l.WasParent = l.Moved[:0], l.WasDist[:0], l.WasParent[:0]
	s.l, s.heap.items = l, s.heap.items[:0]
	if !l.loose {
		for _, x := range cut {
			s.u = l.Parent[x]
			s.unlabelChild(x, 0)
		}
		// Moved holds exactly the nodes that lost their label, and serves as
		// the queue of the descent; until the heads are offered, noted is them.
		for i := 0; i < len(l.Moved); i++ {
			s.u = l.Moved[i]
			v.VisitOut(s.u, s.unlabel)
		}
		for _, x := range l.Moved { // offers note only nodes already noted
			s.x = x
			v.VisitIn(x, s.seed)
		}
		for _, u := range heads {
			if s.u = u; l.Dist[u] < Inf {
				v.VisitOut(u, s.mend)
			}
		}
		for h := &s.heap; h.len() > 0 && !l.loose; {
			// Labels only fall from here on, and each fall pushed the node
			// anew: an item above its node's label is out of date.
			if it := h.pop(); !(it.dist > l.Dist[it.node]) {
				s.u = it.node
				v.VisitOut(s.u, s.mend)
			}
		}
	}
	if l.loose {
		s.fallbacks++
		res := s.Run(v, src)
		for x, d := range res.Dist {
			if math.Float64bits(d) != math.Float64bits(l.Dist[x]) || res.Parent[x] != l.Parent[x] {
				l.note(graph.NodeID(x))
				l.Dist[x], l.Parent[x] = d, res.Parent[x]
			}
		}
		l.loose = false
		lengthens := func(_ graph.NodeID, cost float64) {
			l.loose = l.loose || !(l.Dist[s.u]+cost > l.Dist[s.u])
		}
		for u, d := range l.Dist {
			if s.u = graph.NodeID(u); d < Inf {
				v.VisitOut(s.u, lengthens)
			}
		}
	}
}

// unlabelChild takes the label of to away if s.u→to is a tree link.
func (s *Scratch) unlabelChild(to graph.NodeID, _ float64) {
	if l := s.l; l.Parent[to] == s.u {
		l.note(to)
		l.Dist[to], l.Parent[to] = Inf, graph.None
	}
}

// seedLink offers the link from→s.x, into a node that lost its label, when
// from kept its own.
func (s *Scratch) seedLink(from graph.NodeID, cost float64) {
	if l := s.l; !l.noted[from] && l.Dist[from] < Inf {
		s.u = from
		s.mendLink(s.x, cost)
	}
}

// mendLink offers the link s.u→to to the tree under repair.
func (s *Scratch) mendLink(to graph.NodeID, cost float64) {
	l := s.l
	nd := l.Dist[s.u] + cost
	if !(nd > l.Dist[s.u]) {
		l.loose = true
	} else if nd <= l.Dist[to] {
		l.note(to)
		if offer(l.Dist, l.Parent, to, s.u, nd) {
			s.heap.push(item{node: to, dist: nd})
		}
	}
}
