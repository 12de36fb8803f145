package pda

import (
	"math"
	"slices"

	"minroute/internal/dijkstra"
	"minroute/internal/graph"
	"minroute/internal/lsu"
)

// Tables holds the per-router state both PDA and MPDA maintain (Section
// 4.1.1): the main topology table T, one neighbor topology table T_k per
// neighbor, the distance tables D_j and D_jk, and the adjacent-link costs
// l_ik. Tables implements NTU (neighbor topology table update) and MTU
// (main topology table update); the protocol state machines drive it.
type Tables struct {
	id graph.NodeID
	n  int

	// nbrs lists the up adjacent neighbors ascending; adj, nbrTopo and
	// nbrDist are parallel to it, and pos[k] is k's index in all four
	// (-1 when k is not an up neighbor). pos, main and spare are sized by
	// the ID space and wait for first use: a network builds all its routers
	// before any has a neighbor, and a router that never gets one needs none.
	nbrs []graph.NodeID
	pos  []int32
	// adj[i] is l_ik for k = nbrs[i].
	adj []float64
	// nbrTopo[i] is T_k, the time-delayed copy of neighbor k's main table.
	nbrTopo []*Topology
	// nbrDist[i][j] is D_jk: the distance from k to j in T_k.
	nbrDist [][]float64
	// main is T, the router's own shortest-path tree; spare is the buffer
	// the next RunMTU builds into before the two swap.
	main, spare *Topology
	// dist[j] is D_j, the distance from id to j in T.
	dist []float64

	// version counts changes to the MTU's inputs — an adj cost or
	// membership, any T_k entry; mtuVersion is its value when RunMTU last
	// rebuilt T. T is a function of those inputs alone, so while the two
	// are equal another RunMTU would rebuild the same T and report an
	// empty diff: it is skipped.
	version, mtuVersion uint64
	sp                  dijkstra.Scratch

	// moved collects the destinations j whose D_j or some D_jk changed —
	// bit-wise, or with the neighbor set — until its owner Resets it.
	moved DestSet
	// walk and stack are the working memory of treeDistances; walked counts
	// the links it examined.
	walk   []float64
	stack  []graph.NodeID
	walked int
}

// DestSet is a set of destinations over a dense ID space, built to cost
// nothing while empty and one flag test per Add. The zero value is an empty
// set; storage waits for the first Add.
type DestSet struct {
	list []graph.NodeID
	in   []bool
}

// Add puts j, below the ID-space size n, in the set.
func (s *DestSet) Add(j graph.NodeID, n int) {
	if s.in == nil {
		s.list, s.in = make([]graph.NodeID, 0, n), make([]bool, n)
	}
	if !s.in[j] {
		s.in[j] = true
		s.list = append(s.list, j)
	}
}

// List returns the members, in the order added unless the caller sorted
// them: the set's own slice, which Add and Reset invalidate.
func (s *DestSet) List() []graph.NodeID { return s.list }

// Reset empties the set, keeping its storage.
func (s *DestSet) Reset() {
	for _, j := range s.list {
		s.in[j] = false
	}
	s.list = s.list[:0]
}

// NewTables returns fresh tables for router id over an ID space of n nodes.
// All distances start at infinity except D_id = 0 (paper INIT-PDA).
func NewTables(id graph.NodeID, n int) *Tables {
	t := &Tables{id: id, n: n, dist: infSlice(n)}
	t.dist[id] = 0
	return t
}

func infSlice(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.Inf(1)
	}
	return s
}

// ID returns the owning router.
func (t *Tables) ID() graph.NodeID { return t.id }

// NumNodes returns the ID-space size.
func (t *Tables) NumNodes() int { return t.n }

// Neighbors returns the up adjacent neighbors in ascending order (not a
// copy; callers must not mutate it, and it is only valid until the next
// SetAdjacent or RemoveAdjacent).
func (t *Tables) Neighbors() []graph.NodeID { return t.nbrs }

// Moved is the set of destinations j whose D_j or D_jk, for some up
// neighbor k, may differ from what they were when the set was last Reset:
// ApplyLSU adds j when D_jk changed bit-wise for the sender, RunMTU when D_j
// did, and a neighbor joining or leaving adds every j. Everything derived
// per destination from the distance tables — MPDA's S_j first — is current
// outside this set. The caller owns emptying it, and may add to it.
func (t *Tables) Moved() *DestSet { return &t.moved }

// update stores the distances d over old and adds to Moved every j where the
// two differed.
func (t *Tables) update(old, d []float64) {
	for j, v := range d {
		if math.Float64bits(v) != math.Float64bits(old[j]) {
			old[j] = v
			t.moved.Add(graph.NodeID(j), t.n)
		}
	}
}

// moveAll adds every destination to Moved: the neighbor set changed.
func (t *Tables) moveAll() {
	for j := 0; j < t.n; j++ {
		t.moved.Add(graph.NodeID(j), t.n)
	}
}

// index returns k's position in the neighbor-parallel slices.
func (t *Tables) index(k graph.NodeID) (int, bool) {
	if int(k) < 0 || int(k) >= len(t.pos) {
		return 0, false
	}
	i := t.pos[k]
	return int(i), i >= 0
}

// AdjCost returns l_ik for neighbor k.
func (t *Tables) AdjCost(k graph.NodeID) (float64, bool) {
	i, ok := t.index(k)
	if !ok {
		return 0, false
	}
	return t.adj[i], true
}

// Dist returns D_j, the router's distance to j in T.
func (t *Tables) Dist(j graph.NodeID) float64 { return t.dist[j] }

// Dists returns the full distance vector (not a copy; callers must not
// mutate it, and the next RunMTU overwrites it).
func (t *Tables) Dists() []float64 { return t.dist }

// NbrDist returns D_jk, the distance from neighbor k to destination j in the
// router's copy of k's topology. Infinite when unknown.
func (t *Tables) NbrDist(j, k graph.NodeID) float64 {
	i, ok := t.index(k)
	if !ok {
		return math.Inf(1)
	}
	return t.nbrDist[i][j]
}

// Main exposes the main topology table T (read-only by convention; the
// RunMTU after next reuses its storage).
func (t *Tables) Main() *Topology {
	if t.main == nil {
		t.main = NewTopology(t.n)
	}
	return t.main
}

// NeighborTopo exposes T_k (read-only by convention), or nil when k is not
// an up neighbor.
func (t *Tables) NeighborTopo(k graph.NodeID) *Topology {
	i, ok := t.index(k)
	if !ok {
		return nil
	}
	return t.nbrTopo[i]
}

// SetAdjacent records that the adjacent link to k is up with cost l_ik
// (NTU steps 2 and 3).
func (t *Tables) SetAdjacent(k graph.NodeID, cost float64) {
	t.version++
	if i, known := t.index(k); known {
		t.adj[i] = cost
		return
	}
	if t.pos == nil {
		t.pos = make([]int32, t.n)
		for j := range t.pos {
			t.pos[j] = -1
		}
	}
	i, _ := slices.BinarySearch(t.nbrs, k)
	d := infSlice(t.n)
	d[k] = 0
	t.nbrs = slices.Insert(t.nbrs, i, k)
	t.adj = slices.Insert(t.adj, i, cost)
	t.nbrTopo = slices.Insert(t.nbrTopo, i, NewTopology(t.n))
	t.nbrDist = slices.Insert(t.nbrDist, i, d)
	t.reindex(i)
	t.moveAll()
}

// RemoveAdjacent handles failure of the adjacent link to k (NTU step 4):
// l_ik is removed and T_k is cleared.
func (t *Tables) RemoveAdjacent(k graph.NodeID) {
	i, known := t.index(k)
	if !known {
		return
	}
	t.version++
	t.nbrs = slices.Delete(t.nbrs, i, i+1)
	t.adj = slices.Delete(t.adj, i, i+1)
	t.nbrTopo = slices.Delete(t.nbrTopo, i, i+1)
	t.nbrDist = slices.Delete(t.nbrDist, i, i+1)
	t.pos[k] = -1
	t.reindex(i)
	t.moveAll()
}

// reindex restores pos for the neighbors at positions from and up.
func (t *Tables) reindex(from int) {
	for i := from; i < len(t.nbrs); i++ {
		t.pos[t.nbrs[i]] = int32(i)
	}
}

// ApplyLSU implements NTU step 1: it applies the entries of an LSU received
// from neighbor k to T_k and recomputes the distances D_jk from k over the
// updated T_k. LSUs from unknown (down) neighbors are ignored, and so are
// entries naming a node outside the ID space — LSUs arrive from the
// network. An LSU that leaves no entry to apply (a pure ACK) changes
// nothing and costs nothing.
func (t *Tables) ApplyLSU(k graph.NodeID, entries []lsu.Entry) {
	i, ok := t.index(k)
	if !ok {
		return
	}
	applied := false
	for _, e := range entries {
		if t.inSpace(e.Head) && t.inSpace(e.Tail) {
			t.nbrTopo[i].Apply(e)
			applied = true
		}
	}
	if !applied {
		return
	}
	t.version++
	t.update(t.nbrDist[i], t.treeDistances(t.nbrTopo[i], k))
}

// treeDistances returns the distances from src over topo, in a vector the
// next call overwrites. A neighbor reports its shortest-path tree, and in a
// tree every node has one path from the root: labelling each link's tail
// with dist[head] + cost once, in any order, performs the additions Dijkstra
// would and yields the same bits without its heap. That the links reachable
// from src form a tree is observed, not assumed (an inconsistent or hostile
// peer breaks it): the walk gives way to Dijkstra at the first link whose
// tail has a label already, or whose cost Dijkstra would not relax over —
// at most one link after the last new label, so never more than n visited.
func (t *Tables) treeDistances(topo *Topology, src graph.NodeID) []float64 {
	if t.walk == nil {
		t.walk = make([]float64, t.n)
	}
	d, inf := t.walk, math.Inf(1)
	for j := range d {
		d[j] = inf
	}
	d[src] = 0
	stack := append(t.stack[:0], src)
	for len(stack) > 0 {
		h := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, l := range topo.rows[h] {
			t.walked++
			nd := d[h] + l.cost
			if d[l.tail] < inf || !(l.cost >= 0 && nd < inf) {
				t.stack = stack
				return t.sp.Run(topo, src).Dist
			}
			d[l.tail] = nd
			stack = append(stack, l.tail)
		}
	}
	t.stack = stack
	return d
}

func (t *Tables) inSpace(id graph.NodeID) bool { return int(id) >= 0 && int(id) < t.n }

// RunMTU implements the MTU procedure (paper Fig. 3): rebuild the main
// table T by merging the neighbor topologies — resolving conflicting link
// reports in favor of the neighbor offering the shortest distance to the
// head of the link, ties to the lowest address — overriding adjacent links
// with local knowledge, pruning to the shortest-path tree, and updating the
// distance table. It returns the LSU entries describing the difference from
// the previous T (step 8); an empty result means T did not change. When no
// input changed since the last run, T is left alone (see version).
func (t *Tables) RunMTU() []lsu.Entry {
	if t.version == t.mtuVersion {
		return nil
	}
	t.mtuVersion = t.version
	oldT, newT := t.Main(), t.spare
	if newT == nil {
		newT = NewTopology(t.n)
	}
	newT.Clear()

	// Steps 2-4: each node j gets a preferred neighbor p minimizing
	// D_jk + l_ik (ties to lowest address, which the ascending neighbor
	// order provides), and T takes all links with head j from T_p. The
	// paper's node set is the union over all T_k; a node outside it is
	// unreachable in every T_k, so scanning the whole ID space visits the
	// same nodes, in the same ascending order.
	for j := range newT.rows {
		if graph.NodeID(j) == t.id {
			continue // local links are handled in step 5
		}
		if p := t.preferred(graph.NodeID(j)); p >= 0 {
			src := t.nbrTopo[p].rows[j]
			newT.rows[j] = append(newT.rows[j], src...)
			newT.links += len(src)
		}
	}

	// Step 5: adjacent links override anything reported by neighbors.
	for i, k := range t.nbrs {
		newT.rows[t.id] = append(newT.rows[t.id], link{k, t.adj[i]})
	}
	newT.links += len(t.nbrs)

	// Steps 6-7: prune to the shortest-path tree and refresh distances.
	t.update(t.dist, newT.SPT(t.id, &t.sp).Dist)
	t.main, t.spare = newT, oldT

	// Step 8: report differences.
	return newT.Diff(oldT)
}

// preferred returns the position of the neighbor minimizing D_jk + l_ik
// toward j, lowest address among equals, or -1 when j is unreachable
// through every neighbor.
func (t *Tables) preferred(j graph.NodeID) int {
	best, p := math.Inf(1), -1
	for i, l := range t.adj {
		if d := t.nbrDist[i][j] + l; d < best {
			best, p = d, i
		}
	}
	return p
}

// PreferredNeighbor returns the neighbor minimizing D_jk + l_ik toward j
// (the next hop single-path routing would use), or graph.None when j is
// unreachable through every neighbor.
func (t *Tables) PreferredNeighbor(j graph.NodeID) graph.NodeID {
	if p := t.preferred(j); p >= 0 {
		return t.nbrs[p]
	}
	return graph.None
}
