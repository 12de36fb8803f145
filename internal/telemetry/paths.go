package telemetry

import (
	"sort"

	"minroute/internal/graph"
)

// Hop is one router on a packet's path and the time the packet was sent
// toward it; for the flow's source, the time the packet left it.
type Hop struct {
	Node graph.NodeID
	T    float64
}

// Path is the forwarding path of one data packet, rebuilt from its events.
type Path struct {
	Flow int32
	Pkt  uint32
	Dst  graph.NodeID
	// Hops starts at the flow's source; each accepted transmission
	// (KindPktEnqueue) adds the router it was sent toward.
	Hops []Hop
	// End is the event that closed the path: KindPktDeliver, KindPktLost or
	// one of the router drop kinds. KindPktEnqueue means still in flight.
	End Kind
}

// Delivered reports whether the packet reached its destination.
func (p *Path) Delivered() bool { return p.End == KindPktDeliver }

// Revisits counts how many hops land on a node the packet already visited.
func (p *Path) Revisits() int {
	seen := make(map[graph.NodeID]bool, len(p.Hops))
	n := 0
	for _, h := range p.Hops {
		if seen[h.Node] {
			n++
		}
		seen[h.Node] = true
	}
	return n
}

// Paths rebuilds packet paths from an event log in merge order (what
// Tracer.Events returns, or ReadJSONL of an exported log); src[f] is flow
// f's source router. The merge order does not depend on how a run was
// partitioned, so neither do the paths. The result is in ascending (Flow,
// Pkt) order.
//
// A path that lost events to ring wrap is left out: one whose first
// retained event is not at its flow's source, or whose next event is not
// where the packet last went.
func Paths(events []Event, src []graph.NodeID) []Path {
	type key struct {
		flow int32
		pkt  uint32
	}
	const gone = -1
	index := make(map[key]int)
	var out []Path
	for i := range events {
		ev := &events[i]
		if ev.Pkt == 0 {
			continue // not a packet event
		}
		k := key{ev.Flow, ev.Pkt}
		at, ok := index[k]
		if !ok {
			if ev.Kind == KindPktLost || ev.Flow < 0 || int(ev.Flow) >= len(src) || ev.Router != src[ev.Flow] {
				index[k] = gone
				continue
			}
			at = len(out)
			index[k] = at
			out = append(out, Path{Flow: ev.Flow, Pkt: ev.Pkt, Dst: ev.Dst, Hops: []Hop{{Node: ev.Router, T: ev.T}}, End: KindPktEnqueue})
		}
		if at == gone {
			continue
		}
		p := &out[at]
		here := ev.Router
		if ev.Kind == KindPktLost {
			here = ev.Peer // lost on the link toward its last hop
		}
		if here != p.Hops[len(p.Hops)-1].Node {
			p.Hops = nil
			index[k] = gone
			continue
		}
		if ev.Kind == KindPktEnqueue {
			p.Hops = append(p.Hops, Hop{Node: ev.Peer, T: ev.T})
		} else {
			p.End = ev.Kind
		}
	}
	kept := out[:0]
	for _, p := range out {
		if p.Hops != nil {
			kept = append(kept, p)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].Flow != kept[j].Flow {
			return kept[i].Flow < kept[j].Flow
		}
		return kept[i].Pkt < kept[j].Pkt
	})
	return kept
}

// Audit summarizes loop behaviour over the delivered paths: how many there
// are, how many revisit a node, and the longest in hops.
func Audit(paths []Path) (delivered, withRevisit, maxHops int) {
	for i := range paths {
		p := &paths[i]
		if !p.Delivered() {
			continue
		}
		delivered++
		if p.Revisits() > 0 {
			withRevisit++
		}
		if h := len(p.Hops) - 1; h > maxHops {
			maxHops = h
		}
	}
	return delivered, withRevisit, maxHops
}
