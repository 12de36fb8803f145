// Package mpda implements MPDA, the Multiple-path Partial-topology
// Dissemination Algorithm (paper Fig. 4 and Section 4.1.2) — the first
// link-state routing algorithm that provides multiple loop-free paths of
// arbitrary positive cost to each destination at every instant.
//
// MPDA is PDA plus the Loop-Free Invariant (LFI) machinery:
//
//   - Each router keeps a feasible distance FD_j per destination — an
//     estimate of D_j that may lag it during transients but never exceeds
//     any D_j value a neighbor might still hold.
//   - The successor set is S_j = {k ∈ N : D_jk < FD_j}, where D_jk is the
//     distance from neighbor k to j computed from the topology k reported.
//   - LSUs are synchronized over a single hop: a router that floods a
//     topology change goes ACTIVE and defers further main-table updates
//     until every neighbor has acknowledged the LSU; only then may FD rise.
//
// Theorem 3 (safety): the successor graph implied by all S_j is loop-free
// at every instant. Theorem 4 (liveness): after the last change, D_j are
// the correct shortest distances and S_j = {k : D_j^k < D_j}.
//
// An event re-derives S_j only for the destinations whose D_jk, FD_j or
// neighbor set it moved — and where only an LSU's sender k moved D_jk, it
// re-tests k's membership alone — and Router.TakeMoved hands the host,
// ascending, exactly the destinations whose S_j changed, so per-destination
// state built from S_j follows suit. HandleLSU borrows its message for the
// call: a host may decode every LSU into the same one.
package mpda

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"

	"minroute/internal/graph"
	"minroute/internal/lsu"
	"minroute/internal/numeric"
	"minroute/internal/pda"
)

// Sender transmits an LSU message toward a neighbor; the transport must be
// reliable and FIFO per link.
type Sender func(to graph.NodeID, m *lsu.Msg)

// Router is the MPDA state machine. Not safe for concurrent use.
type Router struct {
	t    *pda.Tables
	send Sender

	// OnPhase, when non-nil, observes every ACTIVE/PASSIVE transition
	// (called after the state flips). Telemetry hangs span edges off it.
	OnPhase func(active bool)
	// OnCommit, when non-nil, observes every main-table (MTU) commit that
	// changed entries; n is the number of changed entries about to flood.
	OnCommit func(n int)

	// active is true while the router waits for ACKs to its last LSU.
	active bool
	// awaiting[k] counts outstanding ACKs from neighbor k, and waiting the
	// neighbors whose count is not zero. Every entry-bearing LSU sent —
	// floods and the LinkUp full-table sync alike — increments the
	// neighbor's counter, and every ACK received decrements it. Counting every
	// entry-bearing LSU is what makes the bookkeeping exact: the receiver
	// acknowledges each such LSU, and over a reliable FIFO link ACKs arrive
	// in the order the LSUs were sent, so a zero counter proves the most
	// recent flood (and everything before it) has been applied remotely.
	// Tracking only the flood would let the sync's ACK act as a stale
	// credit that releases a later ACTIVE phase before the neighbor has
	// seen the flooded change, breaking the LFI.
	awaiting []int32
	waiting  int
	// fd[j] is the feasible distance FD_j.
	fd []float64
	// succ[j] is the successor set S_j, ascending by neighbor ID.
	succ [][]graph.NodeID
	// changed collects the destinations whose S_j an event changed, for the
	// host to take (TakeMoved).
	changed pda.DestSet
	// temp is the ACTIVE→PASSIVE step's scratch copy of D.
	temp []float64
}

// NewRouter returns an MPDA router for node id over an ID space of n nodes.
// Routers start PASSIVE with FD_j = ∞ (FD_id = 0).
func NewRouter(id graph.NodeID, n int, send Sender) *Router {
	if send == nil {
		panic("mpda: nil sender")
	}
	r := &Router{
		t:        pda.NewTables(id, n),
		send:     send,
		awaiting: make([]int32, n),
		fd:       make([]float64, n),
		succ:     make([][]graph.NodeID, n),
	}
	for j := range r.fd {
		r.fd[j] = math.Inf(1)
	}
	r.fd[id] = 0
	return r
}

// ID returns the router's node ID.
func (r *Router) ID() graph.NodeID { return r.t.ID() }

// Tables exposes the underlying PDA tables for inspection.
func (r *Router) Tables() *pda.Tables { return r.t }

// Active reports whether the router is in the ACTIVE phase.
func (r *Router) Active() bool { return r.active }

// FD returns the feasible distance FD_j.
func (r *Router) FD(j graph.NodeID) float64 { return r.fd[j] }

// Dist returns D_j from the main topology table.
func (r *Router) Dist(j graph.NodeID) float64 { return r.t.Dist(j) }

// Successors returns S_j. The returned slice is owned by the router; do not
// mutate it.
func (r *Router) Successors(j graph.NodeID) []graph.NodeID { return r.succ[j] }

// Owed returns how many entry-bearing LSUs sent to neighbor k it has not
// yet acknowledged.
func (r *Router) Owed(k graph.NodeID) int { return int(r.awaiting[k]) }

// AppendState appends the router's one canonical state encoding to b: the
// phase (a byte, 1 while ACTIVE); per destination ascending, D_j and FD_j as
// exact float64 bits and S_j as a count and its members; per neighbor, the
// ACKs it owes. Integers are four bytes, little-endian. Every state digest
// reads this; φ is left out (DESIGN §12).
func (r *Router) AppendState(b []byte) []byte {
	phase := byte(0)
	if r.active {
		phase = 1
	}
	b = append(b, phase)
	le := binary.LittleEndian
	for j, d := range r.t.Dists() {
		b = le.AppendUint64(b, math.Float64bits(d))
		b = le.AppendUint64(b, math.Float64bits(r.fd[j]))
		b = le.AppendUint32(b, uint32(len(r.succ[j])))
		for _, k := range r.succ[j] {
			b = le.AppendUint32(b, uint32(k))
		}
	}
	for _, owed := range r.awaiting {
		b = le.AppendUint32(b, uint32(owed))
	}
	return b
}

// Digest hashes an AppendState encoding — one router's, or several
// concatenated in ID order — into the hex string a state hash is shown as.
func Digest(state []byte) string {
	sum := sha256.Sum256(state)
	return hex.EncodeToString(sum[:])
}

// TakeMoved returns, ascending, the destinations whose S_j an event has
// changed since the previous call — exactly those: one whose S_j was
// re-derived to the set it had is not named — and forgets them. Whatever a
// host builds per destination from S_j (routing parameters, forwarding
// entries) it need only rebuild for these. The slice is the router's and
// valid until its next event.
func (r *Router) TakeMoved() []graph.NodeID {
	moved := r.changed.List()
	slices.Sort(moved)
	r.changed.Reset()
	return moved
}

// SuccessorDistance returns D_jk + l_ik, the marginal distance to j through
// neighbor k, as used by the allocation heuristics. It is +Inf when k's
// distance or the adjacent link is unknown.
func (r *Router) SuccessorDistance(j, k graph.NodeID) float64 {
	l, ok := r.t.AdjCost(k)
	if !ok {
		return math.Inf(1)
	}
	return r.t.NbrDist(j, k) + l
}

// BestSuccessor returns the successor in S_j minimizing D_jk + l_ik, or
// graph.None when S_j is empty. Single-path (SP) forwarding uses this.
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

// LinkUp handles a new (or recovered) adjacent link to k with cost l_ik.
// The router sends its full main table to the new neighbor so that the
// neighbor's T_k copy starts consistent.
func (r *Router) LinkUp(k graph.NodeID, cost float64) {
	r.t.SetAdjacent(k, cost)
	if full := r.t.Main().Entries(); len(full) > 0 {
		r.expectAck(k)
		r.send(k, &lsu.Msg{From: r.ID(), Entries: full})
	}
	r.process(graph.None, true)
}

// LinkCostChange handles a cost change of the adjacent link to k.
func (r *Router) LinkCostChange(k graph.NodeID, cost float64) {
	if _, up := r.t.AdjCost(k); !up {
		return
	}
	r.t.SetAdjacent(k, cost)
	r.process(graph.None, false)
}

// LinkDown handles failure of the adjacent link to k. Per the paper, "any
// pending ACKs from the neighbor at the other end of the link are treated
// as received".
func (r *Router) LinkDown(k graph.NodeID) {
	r.t.RemoveAdjacent(k)
	if r.awaiting[k] > 0 {
		r.awaiting[k] = 0
		r.waiting--
	}
	r.process(graph.None, true)
}

// HandleLSU processes an LSU message from a neighbor. It borrows m for the
// call and keeps nothing of it.
func (r *Router) HandleLSU(m *lsu.Msg) {
	if _, up := r.t.AdjCost(m.From); !up {
		return // stale message across a down link
	}
	r.t.ApplyLSU(m.From, m.Entries)
	if m.Ack && r.awaiting[m.From] > 0 {
		if r.awaiting[m.From]--; r.awaiting[m.From] == 0 {
			r.waiting--
		}
	}
	ackTo := graph.None
	if len(m.Entries) > 0 {
		// Every LSU that carries topology changes must be acknowledged.
		ackTo = m.From
	}
	r.process(ackTo, false)
}

// process is the body of procedure MPDA (paper Fig. 4), run after the
// NTU step of any event. ackTo identifies a neighbor whose entry-bearing
// LSU must be acknowledged by this event's outgoing message (graph.None
// when the event was not such an LSU): the one neighbor whose D_jk the
// event can have moved, unless nbrsMoved says it changed the neighbor set.
func (r *Router) process(ackTo graph.NodeID, nbrsMoved bool) {
	var diff []lsu.Entry
	// S_j = {k | D_jk < FD_j} moves only with N, the D_jk or FD_j. Steps 2
	// and 3 re-derive S_j wherever FD_j moved; elsewhere, the tables' Moved
	// set holds the destinations whose D_jk may have, and step 4 re-derives
	// S_j there when N moved, else re-tests the sender's membership alone.
	moved := r.t.Moved()
	switch {
	case !r.active:
		// Step 2: PASSIVE — update T and lower FD toward the new D. FD_j ≤
		// D_j held before the MTU (both steps leave it so, and only an MTU
		// moves D), so FD_j can fall only where D_j just moved.
		diff = r.t.RunMTU()
		for _, j := range moved.List() {
			r.setFD(j, math.Min(r.fd[j], r.t.Dist(j)))
		}
	case r.waiting == 0:
		// Step 3: ACTIVE and the last ACK has arrived. temp captures the
		// distances that were reported in the just-acknowledged LSU (MTU was
		// deferred during the ACTIVE phase, so D is unchanged since then).
		// FD_j may rise here, to a D_j that did not move.
		r.temp = append(r.temp[:0], r.t.Dists()...)
		r.setActive(false)
		diff = r.t.RunMTU()
		for j, fd := range r.temp {
			if d := r.t.Dist(graph.NodeID(j)); math.Float64bits(d) != math.Float64bits(fd) {
				fd = math.Min(fd, d) // else the same bits, as Min would give
			}
			r.setFD(graph.NodeID(j), fd)
		}
	default:
		// ACTIVE with ACKs outstanding: NTU only; the MTU is deferred.
	}

	// Step 4: recompute the successor sets S_j = {k | D_jk < FD_j} the
	// moved D_jk can have changed.
	if nbrsMoved {
		for _, j := range moved.List() {
			r.deriveSuccessors(j)
		}
	} else if i, up := slices.BinarySearch(r.t.Neighbors(), ackTo); up {
		dk := r.t.NeighborDists()[i]
		for _, j := range moved.List() {
			r.retest(j, ackTo, dk[j])
		}
	}
	moved.Reset()

	// Steps 5-8: flood changes (becoming ACTIVE) and acknowledge.
	if len(diff) > 0 {
		if r.OnCommit != nil {
			r.OnCommit(len(diff))
		}
		nbrs := r.t.Neighbors()
		if len(nbrs) == 0 {
			return // isolated router: nothing to flood, stay passive
		}
		r.setActive(true)
		for _, k := range nbrs {
			r.expectAck(k)
			r.send(k, &lsu.Msg{From: r.ID(), Entries: diff, Ack: k == ackTo})
			if k == ackTo {
				ackTo = graph.None
			}
		}
	}
	if ackTo != graph.None {
		// No changes to report (or ackTo is no longer a neighbor of the
		// flood): a pure ACK still must go back.
		if _, up := r.t.AdjCost(ackTo); up {
			r.send(ackTo, &lsu.Msg{From: r.ID(), Ack: true})
		}
	}
}

// expectAck counts one more entry-bearing LSU sent to k.
func (r *Router) expectAck(k graph.NodeID) {
	if r.awaiting[k] == 0 {
		r.waiting++
	}
	r.awaiting[k]++
}

// setActive flips the phase flag, notifying OnPhase on real transitions.
func (r *Router) setActive(a bool) {
	if r.active == a {
		return
	}
	r.active = a
	if r.OnPhase != nil {
		r.OnPhase(a)
	}
}

// setFD makes fd the feasible distance FD_j and, when it moved, re-derives
// S_j.
func (r *Router) setFD(j graph.NodeID, fd float64) {
	if math.Float64bits(fd) != math.Float64bits(r.fd[j]) {
		r.fd[j] = fd
		r.deriveSuccessors(j)
	}
}

// deriveSuccessors sets S_j from the D_jk and FD_j as they stand, in the
// storage S_j has, and notes j when the set changed.
func (r *Router) deriveSuccessors(j graph.NodeID) {
	was := r.succ[j]
	set, same := was[:0], true
	if j != r.ID() {
		dists, fd := r.t.NeighborDists(), r.fd[j]
		for i, k := range r.t.Neighbors() {
			if numeric.Closer(dists[i][j], fd) {
				// was[len(set)] is read before the append overwrites it.
				same = same && len(set) < len(was) && was[len(set)] == k
				set = append(set, k)
			}
		}
	}
	r.succ[j] = set
	if !same || len(set) != len(was) {
		r.changed.Add(j, len(r.fd))
	}
}

// retest brings S_j up to date where only D_jk, for neighbor k, may have
// moved, to djk: k joins or leaves it, and nothing else can.
func (r *Router) retest(j, k graph.NodeID, djk float64) {
	if j == r.ID() {
		return
	}
	set, i := r.succ[j], 0
	for i < len(set) && set[i] < k { // a set holds a few neighbors at most
		i++
	}
	in := i < len(set) && set[i] == k
	if numeric.Closer(djk, r.fd[j]) == in {
		return
	}
	if in {
		r.succ[j] = slices.Delete(set, i, i+1)
	} else {
		r.succ[j] = slices.Insert(set, i, k)
	}
	r.changed.Add(j, len(r.fd))
}
