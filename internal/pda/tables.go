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
	// (-1 when k is not an up neighbor). pos, merged, main and tree.Parent are
	// sized by the ID space and wait for the first neighbor: a network builds
	// all its routers before any has one.
	nbrs []graph.NodeID
	pos  []int32
	// adj[i] is l_ik for k = nbrs[i].
	adj []float64
	// nbrTopo[i] is T_k, the time-delayed copy of neighbor k's main table.
	nbrTopo []*Topology
	// nbrDist[i][j] is D_jk: the distance from k to j in T_k.
	nbrDist [][]float64
	// merged is the MTU's merge of the T_k, kept between runs: row j is row j
	// of T_p for j's preferred neighbor p, row id the adjacent links. tree is
	// the shortest-path tree over it (tree.Dist[j] is D_j) and main is T, the
	// links of merged on that tree. stale collects the rows j whose p, row j
	// of T_p or l_ik may have changed since RunMTU last made merged current.
	merged, main *Topology
	tree         dijkstra.Labels
	stale        DestSet
	sp           dijkstra.Scratch
	// RunMTU's working memory: the tails whose tree link a re-merged row lost
	// or re-priced, the rows of T to derive again, one row being put
	// together, the diff's halves; repairs counts the runs past the merge.
	cut        []graph.NodeID
	dirty      DestSet
	kept       []link
	adds, dels []lsu.Entry
	repairs    int

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
	t := &Tables{id: id, n: n, tree: dijkstra.Labels{Dist: infSlice(n)}}
	t.tree.Dist[id] = 0
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

// addAll puts every destination in s.
func (t *Tables) addAll(s *DestSet) {
	for j := 0; j < t.n; j++ {
		s.Add(graph.NodeID(j), t.n)
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
func (t *Tables) Dist(j graph.NodeID) float64 { return t.tree.Dist[j] }

// Dists returns the full distance vector (not a copy; callers must not
// mutate it, and the next RunMTU writes into it).
func (t *Tables) Dists() []float64 { return t.tree.Dist }

// NbrDist returns D_jk, the distance from neighbor k to destination j in the
// router's copy of k's topology. Infinite when unknown.
func (t *Tables) NbrDist(j, k graph.NodeID) float64 {
	i, ok := t.index(k)
	if !ok {
		return math.Inf(1)
	}
	return t.nbrDist[i][j]
}

// Main exposes the main topology table T (read-only by convention; a RunMTU
// that reports a difference has edited it in place).
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
	t.addAll(&t.stale) // l_ik decides every preferred neighbor
	if i, known := t.index(k); known {
		t.adj[i] = cost
		return
	}
	if t.pos == nil {
		t.pos, t.tree.Parent = make([]int32, t.n), make([]graph.NodeID, t.n)
		for j := range t.pos {
			t.pos[j], t.tree.Parent[j] = -1, graph.None
		}
		t.merged = NewTopology(t.n)
	}
	i, _ := slices.BinarySearch(t.nbrs, k)
	d := infSlice(t.n)
	d[k] = 0
	t.nbrs = slices.Insert(t.nbrs, i, k)
	t.adj = slices.Insert(t.adj, i, cost)
	t.nbrTopo = slices.Insert(t.nbrTopo, i, NewTopology(t.n))
	t.nbrDist = slices.Insert(t.nbrDist, i, d)
	t.reindex(i)
	t.addAll(&t.moved)
}

// RemoveAdjacent handles failure of the adjacent link to k (NTU step 4):
// l_ik is removed and T_k is cleared.
func (t *Tables) RemoveAdjacent(k graph.NodeID) {
	i, known := t.index(k)
	if !known {
		return
	}
	t.nbrs = slices.Delete(t.nbrs, i, i+1)
	t.adj = slices.Delete(t.adj, i, i+1)
	t.nbrTopo = slices.Delete(t.nbrTopo, i, i+1)
	t.nbrDist = slices.Delete(t.nbrDist, i, i+1)
	t.pos[k] = -1
	t.reindex(i)
	t.addAll(&t.moved)
	t.addAll(&t.stale)
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
			t.stale.Add(e.Head, t.n)
			applied = true
		}
	}
	if !applied {
		return
	}
	old := t.nbrDist[i]
	for j, d := range t.treeDistances(t.nbrTopo[i], k) {
		if math.Float64bits(d) != math.Float64bits(old[j]) {
			old[j] = d
			t.moved.Add(graph.NodeID(j), t.n)
			t.stale.Add(graph.NodeID(j), t.n) // j may prefer another neighbor now
		}
	}
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

// RunMTU implements the MTU procedure (paper Fig. 3): the main table T is
// the merge of the neighbor topologies — conflicting link reports resolved in
// favor of the neighbor offering the shortest distance to the head of the
// link, ties to the lowest address — with adjacent links overridden by local
// knowledge, pruned to the shortest-path tree; the distance table follows. It
// returns the LSU entries describing the difference from the previous T
// (step 8); an empty result means T did not change. The merge, the tree and
// T are kept between runs, each brought up to date from what changed in the
// one before it.
func (t *Tables) RunMTU() []lsu.Entry {
	// Steps 2-5: each stale node j gets its preferred neighbor p (ties to the
	// lowest address, by the ascending neighbor order) and merged takes all
	// links with head j from T_p; adjacent links override anything reported
	// by neighbors. The paper's node set is the union over all T_k; a node
	// outside it has no preferred neighbor, hence an empty row.
	t.cut = t.cut[:0]
	for _, j := range t.stale.List() {
		var src []link
		if j == t.id {
			t.kept = t.kept[:0]
			for i, k := range t.nbrs {
				t.kept = append(t.kept, link{k, t.adj[i]})
			}
			src = t.kept
		} else if p := t.preferred(j); p >= 0 {
			src = t.nbrTopo[p].rows[j]
		}
		if t.remerge(j, src) {
			t.dirty.Add(j, t.n)
		}
	}
	t.stale.Reset()
	if len(t.dirty.List()) == 0 {
		return nil
	}

	// Steps 6-7: the shortest-path tree and the distances.
	t.repairs++
	t.sp.Repair(t.merged, t.id, &t.tree, t.cut, t.dirty.List())
	for i, j := range t.tree.Moved {
		if math.Float64bits(t.tree.WasDist[i]) != math.Float64bits(t.tree.Dist[j]) {
			t.moved.Add(j, t.n)
		}
		// T's row h is what of merged's row h names h Parent: beyond the
		// re-merged rows, it changes where a node left or joined h's children.
		if was, now := t.tree.WasParent[i], t.tree.Parent[j]; was != now {
			if was != graph.None {
				t.dirty.Add(was, t.n)
			}
			if now != graph.None {
				t.dirty.Add(now, t.n)
			}
		}
	}

	// Step 8: derive those rows of T again and report the differences.
	dirty, main := t.dirty.List(), t.Main()
	slices.Sort(dirty)
	t.adds, t.dels = t.adds[:0], t.dels[:0]
	for _, h := range dirty {
		t.kept = t.kept[:0]
		for _, l := range t.merged.rows[h] {
			if t.tree.Parent[l.tail] == h {
				t.kept = append(t.kept, l)
			}
		}
		was := main.rows[h]
		t.adds = appendSet(t.adds, h, t.kept, was)
		t.dels = appendGone(t.dels, h, was, t.kept)
		main.links += len(t.kept) - len(was)
		main.rows[h] = append(was[:0], t.kept...)
	}
	t.dirty.Reset()
	if len(t.adds)+len(t.dels) == 0 {
		return nil
	}
	return append(append(make([]lsu.Entry, 0, len(t.adds)+len(t.dels)), t.adds...), t.dels...)
}

// remerge makes row j of merged a copy of src and reports whether it was not
// one already; the tails whose link from j was T's and is gone or re-priced
// go to cut.
func (t *Tables) remerge(j graph.NodeID, src []link) bool {
	row, same := t.merged.rows[j], true
	i, found := 0, false
	for _, was := range row {
		if i, found = seek(src, i, was.tail); !found || math.Float64bits(src[i].cost) != math.Float64bits(was.cost) {
			same = false
			if t.tree.Parent[was.tail] == j {
				t.cut = append(t.cut, was.tail)
			}
		}
	}
	if same && len(row) == len(src) {
		return false
	}
	t.merged.links += len(src) - len(row)
	t.merged.rows[j] = append(row[:0], src...)
	return true
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
