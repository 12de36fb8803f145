// Package dvmp applies the paper's Loop-Free Invariant framework to a
// distance-vector algorithm, demonstrating the generality claim of
// Section 3: "the LFI conditions are applicable to any type of routing
// algorithm ... in distance-vector algorithms, the distances are directly
// communicated among neighbors". The construction follows the MPATH line
// of follow-on work by the same authors.
//
// DVMP is to distance vectors what MPDA is to link states:
//
//   - Routers exchange distance vectors (per-destination distances) instead
//     of partial topologies; D_jk is whatever neighbor k last reported.
//   - The Bellman-Ford equation D_j = min_k(D_jk + l_ik) replaces the
//     topology merge + Dijkstra of MPDA.
//   - The identical feasible-distance machinery provides loop-freedom: the
//     successor set is S_j = {k : D_jk < FD_j}, FD may fall freely but may
//     rise only after a single-hop ACK synchronization guarantees every
//     neighbor has seen the latest reported distances (ACTIVE/PASSIVE
//     phases, exactly as in MPDA).
//
// Count-to-infinity, the classic distance-vector pathology after
// partitions, is eliminated by carrying hop counts in the vector: any
// distance whose path would span >= n hops is treated as unreachable
// (the RIP "16 is infinity" rule made exact).
//
// Wire format: DVMP reuses the LSU message (internal/lsu). A vector entry
// for destination j is encoded as Entry{Head: j, Tail: NodeID(hops),
// Cost: D}; OpDelete withdraws a destination. This keeps the transport,
// harness and simulator plumbing identical to MPDA's.
package dvmp

import (
	"math"

	"minroute/internal/graph"
	"minroute/internal/lsu"
	"minroute/internal/numeric"
)

// Sender transmits a vector message to a neighbor over a reliable FIFO
// link.
type Sender func(to graph.NodeID, m *lsu.Msg)

// entry is one remembered neighbor report.
type entry struct {
	dist float64
	hops int
}

// Router is the DVMP state machine. Not safe for concurrent use.
type Router struct {
	id   graph.NodeID
	n    int
	send Sender

	// adj holds l_ik for up neighbors.
	adj map[graph.NodeID]float64
	// rcv[k][j] is neighbor k's last reported (distance, hops) to j.
	rcv map[graph.NodeID][]entry
	// dist[j] is D_j; hops[j] the corresponding hop count.
	dist []float64
	hops []int
	// reported[j] is the distance last flooded to the neighbors.
	reported []float64
	// fd[j] is the feasible distance.
	fd []float64
	// succ[j] is S_j, ascending.
	succ [][]graph.NodeID

	active   bool
	awaiting map[graph.NodeID]bool
}

// NewRouter returns a DVMP router for node id over an ID space of n nodes.
func NewRouter(id graph.NodeID, n int, send Sender) *Router {
	if send == nil {
		panic("dvmp: nil sender")
	}
	r := &Router{
		id:       id,
		n:        n,
		send:     send,
		adj:      make(map[graph.NodeID]float64),
		rcv:      make(map[graph.NodeID][]entry),
		dist:     infDists(n),
		hops:     make([]int, n),
		reported: infDists(n),
		fd:       infDists(n),
		succ:     make([][]graph.NodeID, n),
		awaiting: make(map[graph.NodeID]bool),
	}
	r.dist[id] = 0
	r.reported[id] = 0
	r.fd[id] = 0
	return r
}

func infDists(n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = math.Inf(1)
	}
	return d
}

// ID returns the router's address.
func (r *Router) ID() graph.NodeID { return r.id }

// Active reports whether an ACK synchronization is in progress.
func (r *Router) Active() bool { return r.active }

// Dist returns D_j.
func (r *Router) Dist(j graph.NodeID) float64 { return r.dist[j] }

// FD returns the feasible distance FD_j (lfi.RouterView).
func (r *Router) FD(j graph.NodeID) float64 { return r.fd[j] }

// Successors returns S_j (lfi.RouterView). Callers must not mutate it.
func (r *Router) Successors(j graph.NodeID) []graph.NodeID { return r.succ[j] }

// NbrDist returns D_jk as last reported by neighbor k.
func (r *Router) NbrDist(j, k graph.NodeID) float64 {
	v, ok := r.rcv[k]
	if !ok {
		return math.Inf(1)
	}
	return v[j].dist
}

// SuccessorDistance returns D_jk + l_ik.
func (r *Router) SuccessorDistance(j, k graph.NodeID) float64 {
	l, ok := r.adj[k]
	if !ok {
		return math.Inf(1)
	}
	return r.NbrDist(j, k) + l
}

// BestSuccessor returns the successor minimizing D_jk + l_ik.
func (r *Router) BestSuccessor(j graph.NodeID) graph.NodeID {
	best := math.Inf(1)
	chosen := graph.None
	for _, k := range r.succ[j] {
		if d := r.SuccessorDistance(j, k); d < best {
			best = d
			chosen = k
		}
	}
	return chosen
}

// LinkUp handles a new adjacent link with cost l_ik: the router sends its
// full current vector to the new neighbor.
func (r *Router) LinkUp(k graph.NodeID, cost float64) {
	if _, known := r.adj[k]; !known {
		v := make([]entry, r.n)
		for j := range v {
			v[j] = entry{dist: math.Inf(1)}
		}
		v[k] = entry{dist: 0}
		r.rcv[k] = v
	}
	r.adj[k] = cost
	if full := r.fullVector(); len(full) > 0 {
		r.send(k, &lsu.Msg{From: r.id, Entries: full})
	}
	r.process(graph.None)
}

// LinkCostChange handles an adjacent-link cost change.
func (r *Router) LinkCostChange(k graph.NodeID, cost float64) {
	if _, up := r.adj[k]; !up {
		return
	}
	r.adj[k] = cost
	r.process(graph.None)
}

// LinkDown handles an adjacent-link failure; pending ACKs from k count as
// received.
func (r *Router) LinkDown(k graph.NodeID) {
	delete(r.adj, k)
	delete(r.rcv, k)
	delete(r.awaiting, k)
	r.process(graph.None)
}

// HandleLSU processes a distance-vector message from a neighbor.
func (r *Router) HandleLSU(m *lsu.Msg) {
	if _, up := r.adj[m.From]; !up {
		return
	}
	v := r.rcv[m.From]
	for _, e := range m.Entries {
		j := int(e.Head)
		if j < 0 || j >= r.n {
			continue
		}
		switch e.Op {
		case lsu.OpAdd, lsu.OpChange:
			v[j] = entry{dist: e.Cost, hops: int(e.Tail)}
		case lsu.OpDelete:
			v[j] = entry{dist: math.Inf(1)}
		}
	}
	if m.Ack {
		delete(r.awaiting, m.From)
	}
	ackTo := graph.None
	if len(m.Entries) > 0 {
		ackTo = m.From
	}
	r.process(ackTo)
}

// process mirrors MPDA's event body: recompute (unless deferred by an
// ACTIVE phase), maintain FD, recompute successors, flood and acknowledge.
func (r *Router) process(ackTo graph.NodeID) {
	changed := false
	switch {
	case !r.active:
		changed = r.recompute()
		for j := range r.fd {
			r.fd[j] = math.Min(r.fd[j], r.dist[j])
		}
	case len(r.awaiting) == 0:
		// The last ACK arrived: every neighbor holds `reported`.
		temp := append([]float64(nil), r.reported...)
		r.active = false
		changed = r.recompute()
		for j := range r.fd {
			r.fd[j] = math.Min(temp[j], r.dist[j])
		}
	default:
		// ACTIVE with ACKs outstanding: inputs recorded, recompute deferred.
	}

	r.recomputeSuccessors()

	if changed {
		diff := r.vectorDiff()
		if len(diff) > 0 {
			nbrs := r.neighbors()
			if len(nbrs) > 0 {
				r.active = true
				for _, k := range nbrs {
					r.awaiting[k] = true
					r.send(k, &lsu.Msg{From: r.id, Entries: diff, Ack: k == ackTo})
					if k == ackTo {
						ackTo = graph.None
					}
				}
				for j := range r.reported {
					r.reported[j] = r.dist[j]
				}
			}
		}
	}
	if ackTo != graph.None {
		if _, up := r.adj[ackTo]; up {
			r.send(ackTo, &lsu.Msg{From: r.id, Ack: true})
		}
	}
}

// recompute runs Bellman-Ford over the neighbor vectors and reports
// whether any D_j changed. Paths of n hops or more are unreachable (the
// exact count-to-infinity horizon).
func (r *Router) recompute() bool {
	changed := false
	nbrs := r.neighbors()
	for j := 0; j < r.n; j++ {
		if graph.NodeID(j) == r.id {
			continue
		}
		best := math.Inf(1)
		bestHops := 0
		for _, k := range nbrs {
			e := r.rcv[k][j]
			if math.IsInf(e.dist, 1) || e.hops+1 >= r.n {
				continue
			}
			if d := e.dist + r.adj[k]; d < best {
				best = d
				bestHops = e.hops + 1
			}
		}
		// Any bit-level distance change triggers an update.
		if best != r.dist[j] {
			r.dist[j] = best
			r.hops[j] = bestHops
			changed = true
		}
	}
	return changed
}

func (r *Router) recomputeSuccessors() {
	nbrs := r.neighbors()
	for j := range r.succ {
		jid := graph.NodeID(j)
		if jid == r.id {
			r.succ[j] = nil
			continue
		}
		set := r.succ[j][:0]
		for _, k := range nbrs {
			if numeric.Closer(r.rcv[k][j].dist, r.fd[j]) {
				set = append(set, k)
			}
		}
		r.succ[j] = set
	}
}

// vectorDiff returns the entries whose distance differs from the last
// report.
func (r *Router) vectorDiff() []lsu.Entry {
	var out []lsu.Entry
	for j := 0; j < r.n; j++ {
		cur, rep := r.dist[j], r.reported[j]
		// Compared with the verbatim last-reported value.
		if cur == rep {
			continue
		}
		if math.IsInf(cur, 1) {
			out = append(out, lsu.Entry{Op: lsu.OpDelete, Head: graph.NodeID(j), Tail: graph.NodeID(j)})
			continue
		}
		op := lsu.OpChange
		if math.IsInf(rep, 1) {
			op = lsu.OpAdd
		}
		out = append(out, lsu.Entry{Op: op, Head: graph.NodeID(j), Tail: graph.NodeID(r.hops[j]), Cost: cur})
	}
	return out
}

// fullVector returns every finite distance as an add entry (sent to a new
// neighbor).
func (r *Router) fullVector() []lsu.Entry {
	var out []lsu.Entry
	for j := 0; j < r.n; j++ {
		if math.IsInf(r.dist[j], 1) {
			continue
		}
		out = append(out, lsu.Entry{Op: lsu.OpAdd, Head: graph.NodeID(j), Tail: graph.NodeID(r.hops[j]), Cost: r.dist[j]})
	}
	return out
}

func (r *Router) neighbors() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(r.adj))
	//lint:maporder-ok keys are collected and insertion-sorted below before any use
	for k := range r.adj {
		out = append(out, k)
	}
	// Insertion sort: neighbor counts are tiny.
	for i := 1; i < len(out); i++ {
		for x := i; x > 0 && out[x] < out[x-1]; x-- {
			out[x], out[x-1] = out[x-1], out[x]
		}
	}
	return out
}
