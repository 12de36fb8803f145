package router

import (
	"minroute/internal/eventq"
	"minroute/internal/graph"
)

// TickTimers returns the handles of the pending Ts and Tl ticks; each tick
// re-arms its own, so a changed handle means that tick ran.
func (n *Node) TickTimers() (ts, tl eventq.Handle) { return n.timers[tsClock], n.timers[tlClock] }

// VisitLinkCosts calls visit for every attached neighbor in ascending
// order with its short-term cost and its long-term (pre-quantization
// advertised) cost.
func (n *Node) VisitLinkCosts(visit func(k graph.NodeID, short, long float64)) {
	for _, l := range n.agent.links {
		visit(l.to, l.short, l.long.Value())
	}
}

// BuiltFrom returns the successor set destination j's routing parameters
// were last built from: φ_j's hops, weighted or not.
func (n *Node) BuiltFrom(j graph.NodeID) []graph.NodeID {
	var hops []graph.NodeID
	for _, sh := range n.agent.phi[j] {
		hops = append(hops, sh.Hop)
	}
	return hops
}
