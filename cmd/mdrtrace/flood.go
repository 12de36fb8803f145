package main

import (
	"fmt"
	"sort"
	"strings"

	"minroute/internal/graph"
	"minroute/internal/telemetry"
)

// Flood tracing reconstructs per-LSU propagation trees from the
// lsu_send/lsu_recv pairs in an event log. Matching is FIFO per directed
// link: the simulator's control band is a reliable in-order channel, so
// the k-th send on link a->b pairs with the k-th recv at b from a.
// Causality across hops uses the attachment window: a send from router r
// at time t belongs to the tree of the last LSU r received no more than
// window seconds earlier (default 0 — the same simulation instant, which
// is exactly how the DES relays floods: HandleControl runs the router and
// its resulting sends fire before time advances). A send with no such
// arrival roots a new tree; same-instant root sends from one router are
// one flood (the initial fan-out to every neighbor).

// floodHop is one matched send->recv edge of a tree.
type floodHop struct {
	From, To     graph.NodeID
	SendT, RecvT float64
	Depth        int // links from the origin (root hops are depth 1)
}

// floodTree is one reconstructed propagation tree.
type floodTree struct {
	Origin   graph.NodeID
	Start    float64 // first send time
	End      float64 // last matched arrival (or send) time
	Sends    int     // lsu_send events attributed to the tree
	Arrivals int     // matched lsu_recv events
	Dups     int     // fan-in: arrivals at routers the flood already reached
	Reached  int     // distinct routers reached, origin excluded
	MaxDepth int
	Hops     []floodHop

	seen map[graph.NodeID]bool
}

// floodReport is the whole log's reconstruction.
type floodReport struct {
	Trees []*floodTree
	// OrphanRecvs are arrivals with no prior unmatched send on their
	// link: the send predates the log (ring-wrapped) or was filtered out.
	OrphanRecvs int
	// UnmatchedSends never arrived inside the log: lost in flight at the
	// end of the run, or the arrival fell off the ring.
	UnmatchedSends int
}

// pendingSend is an in-flight LSU awaiting its arrival.
type pendingSend struct {
	tree  *floodTree
	depth int
	t     float64
}

// lastArrival remembers a router's most recent matched LSU arrival, the
// causal parent for sends it issues within the attachment window.
type lastArrival struct {
	t     float64
	tree  *floodTree
	depth int
}

// buildFlood reconstructs the trees. Events are processed in (T, Seq)
// order — the order Tracer.Events emits — so sends enqueue before the
// arrivals they cause.
func buildFlood(events []telemetry.Event, window float64) floodReport {
	ordered := append([]telemetry.Event(nil), events...)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].T != ordered[j].T {
			return ordered[i].T < ordered[j].T
		}
		return ordered[i].Seq < ordered[j].Seq
	})

	var rep floodReport
	queues := make(map[[2]graph.NodeID][]pendingSend)
	last := make(map[graph.NodeID]lastArrival)
	roots := make(map[graph.NodeID]*floodTree) // last tree rooted at a router

	for _, ev := range ordered {
		switch ev.Kind { // flood tracing reads only the LSU traffic pair
		case telemetry.KindLSUSend:
			r, to, t := ev.Router, ev.Peer, ev.T
			var tree *floodTree
			depth := 1
			if la, ok := last[r]; ok && t-la.t <= window {
				tree, depth = la.tree, la.depth+1
			} else if rt, ok := roots[r]; ok && t-rt.Start <= window {
				// Another root send of the same flood's initial fan-out.
				tree = rt
			} else {
				tree = &floodTree{Origin: r, Start: t, End: t, seen: map[graph.NodeID]bool{r: true}}
				rep.Trees = append(rep.Trees, tree)
				roots[r] = tree
			}
			tree.Sends++
			if t > tree.End {
				tree.End = t
			}
			key := [2]graph.NodeID{r, to}
			queues[key] = append(queues[key], pendingSend{tree: tree, depth: depth, t: t})
			rep.UnmatchedSends++ // until a recv pairs with it
		case telemetry.KindLSURecv:
			r, from, t := ev.Router, ev.Peer, ev.T
			key := [2]graph.NodeID{from, r}
			q := queues[key]
			if len(q) == 0 {
				rep.OrphanRecvs++
				continue
			}
			s := q[0]
			queues[key] = q[1:]
			rep.UnmatchedSends--
			tree := s.tree
			tree.Arrivals++
			tree.Hops = append(tree.Hops, floodHop{From: from, To: r, SendT: s.t, RecvT: t, Depth: s.depth})
			if t > tree.End {
				tree.End = t
			}
			if s.depth > tree.MaxDepth {
				tree.MaxDepth = s.depth
			}
			if tree.seen[r] {
				tree.Dups++
			} else {
				tree.seen[r] = true
				tree.Reached++
			}
			last[r] = lastArrival{t: t, tree: tree, depth: s.depth}
		}
	}
	return rep
}

// renderFlood prints the report: one line per tree in start-time order
// (the construction order), optionally followed by the per-hop detail.
func renderFlood(rep floodReport, hops bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d flood trees, %d orphan arrivals, %d unmatched sends\n",
		len(rep.Trees), rep.OrphanRecvs, rep.UnmatchedSends)
	for i, tr := range rep.Trees {
		fmt.Fprintf(&b, "tree %d: origin %d t=[%.6f,%.6f] sends=%d arrivals=%d dups=%d reached=%d depth=%d\n",
			i, tr.Origin, tr.Start, tr.End, tr.Sends, tr.Arrivals, tr.Dups, tr.Reached, tr.MaxDepth)
		if !hops {
			continue
		}
		for _, h := range tr.Hops {
			fmt.Fprintf(&b, "  d%d %d->%d send=%.6f recv=%.6f lat=%.6f\n",
				h.Depth, h.From, h.To, h.SendT, h.RecvT, h.RecvT-h.SendT)
		}
	}
	return b.String()
}
