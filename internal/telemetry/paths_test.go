package telemetry

import (
	"reflect"
	"testing"

	"minroute/internal/graph"
	"minroute/internal/leaktest"
)

// pktEvent is one event of packet pkt of flow 0 toward router 4.
func pktEvent(t float64, k Kind, router, peer graph.NodeID, pkt uint32) Event {
	return Event{T: t, Kind: k, Router: router, Peer: peer, Dst: 4, Flow: 0, Pkt: pkt}
}

func TestPaths(t *testing.T) {
	leaktest.Check(t)
	src := []graph.NodeID{1} // flow 0 starts at router 1
	enq := func(t float64, from, to graph.NodeID) Event { return pktEvent(t, KindPktEnqueue, from, to, 7) }
	end := func(t float64, k Kind, at graph.NodeID) Event { return pktEvent(t, k, at, graph.None, 7) }
	for _, tc := range []struct {
		name   string
		events []Event
		hops   []graph.NodeID // nil: the path is left out
		end    Kind
	}{
		{"delivered", []Event{enq(0, 1, 2), enq(0.1, 2, 4), end(0.2, KindPktDeliver, 4)}, []graph.NodeID{1, 2, 4}, KindPktDeliver},
		{"in-flight", []Event{enq(0, 1, 2)}, []graph.NodeID{1, 2}, KindPktEnqueue},
		{"dropped", []Event{enq(0, 1, 2), end(0.1, KindDropQueue, 2)}, []graph.NodeID{1, 2}, KindDropQueue},
		{"no-route-at-source", []Event{end(0, KindDropNoRoute, 1)}, []graph.NodeID{1}, KindDropNoRoute},
		{"lost", []Event{enq(0, 1, 2), pktEvent(0.1, KindPktLost, 1, 2, 7)}, []graph.NodeID{1, 2}, KindPktLost},
		// Ring wrap overwrote the first hop: the path starts away from the
		// source.
		{"truncated", []Event{enq(0.1, 2, 4), end(0.2, KindPktDeliver, 4)}, nil, 0},
		// ... or a middle hop: the next event is not where the packet went.
		{"gap", []Event{enq(0, 1, 2), enq(0.2, 3, 4), end(0.3, KindPktDeliver, 4)}, nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			paths := Paths(tc.events, src)
			if tc.hops == nil {
				if len(paths) != 0 {
					t.Fatalf("kept %+v, want it left out", paths)
				}
				return
			}
			if len(paths) != 1 {
				t.Fatalf("got %d paths, want 1", len(paths))
			}
			p := paths[0]
			var hops []graph.NodeID
			for _, h := range p.Hops {
				hops = append(hops, h.Node)
			}
			if !reflect.DeepEqual(hops, tc.hops) || p.End != tc.end || p.Flow != 0 || p.Pkt != 7 || p.Dst != 4 {
				t.Fatalf("path %+v, want hops %v ending in %v", p, tc.hops, tc.end)
			}
			if p.Hops[0].T != tc.events[0].T {
				t.Fatalf("first hop at %v, want %v", p.Hops[0].T, tc.events[0].T)
			}
			if p.Delivered() != (tc.end == KindPktDeliver) {
				t.Fatalf("Delivered() = %v with end %v", p.Delivered(), tc.end)
			}
		})
	}
}

func TestAuditCountsRevisits(t *testing.T) {
	leaktest.Check(t)
	var events []Event
	// Packet 1 goes 1→2→4, packet 2 revisits 2, packet 3 is still in flight.
	for _, hop := range [][3]graph.NodeID{{1, 2, 1}, {2, 4, 1}, {1, 2, 2}, {2, 3, 2}, {3, 2, 2}, {2, 4, 2}, {1, 3, 3}} {
		events = append(events, pktEvent(float64(len(events)), KindPktEnqueue, hop[0], hop[1], uint32(hop[2])))
	}
	events = append(events, pktEvent(10, KindPktDeliver, 4, graph.None, 2), pktEvent(11, KindPktDeliver, 4, graph.None, 1))
	paths := Paths(events, []graph.NodeID{1})
	if len(paths) != 3 || paths[0].Pkt != 1 || paths[1].Pkt != 2 || paths[2].Pkt != 3 {
		t.Fatalf("paths %+v, want packets 1, 2, 3 in order", paths)
	}
	if got := paths[1].Revisits(); got != 1 {
		t.Fatalf("revisits = %d, want 1", got)
	}
	delivered, withRevisit, maxHops := Audit(paths)
	if delivered != 2 || withRevisit != 1 || maxHops != 4 {
		t.Fatalf("audit = %d,%d,%d, want 2,1,4", delivered, withRevisit, maxHops)
	}
}
