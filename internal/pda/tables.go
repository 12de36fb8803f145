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
	// (-1 when k is not an up neighbor). pos, pref, merged, main and
	// tree.Parent are sized by the ID space and wait for the first neighbor: a
	// network builds all its routers before any has one.
	nbrs []graph.NodeID
	pos  []int32
	// adj[i] is l_ik for k = nbrs[i].
	adj []float64
	// nbrTopo[i] is T_k, the time-delayed copy of neighbor k's main table.
	nbrTopo []*Topology
	// nbrDist[i][j] is D_jk: the distance from k to j in T_k.
	nbrDist [][]float64
	// merged is the MTU's merge of the T_k, kept between runs: row j is row j
	// of T_p for p = pref[j].k, j's preferred neighbor when the row was last
	// re-merged, row id the adjacent links. tree is the shortest-path tree
	// over it (tree.Dist[j] is D_j) and main is T, the links of merged on that
	// tree. stale collects the rows j whose preferred neighbor, row j of T_p
	// or l_ik may have changed since RunMTU last made merged current; outside
	// it pref[j] is PreferredNeighbor(j) and its offer.
	merged *merge
	main   *Topology
	pref   []preference
	tree   dijkstra.Labels
	stale  DestSet
	sp     dijkstra.Scratch
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
	// ApplyLSU's working memory. roots collects the tails whose in-link an
	// LSU changed, and via[r]-1 indexes the entry that set r's in-link, 0 when
	// no entry of the LSU still holds one; relabel writes the nodes it labels
	// into labelled and their labels into walk, which treeDistances fills
	// whole; stack is both walks' to-do list.
	roots, labelled DestSet
	via             []int32
	walk            []float64
	stack           []graph.NodeID
	// walked counts the links the relabel and the walk examined; relabels,
	// walks and runs count the LSUs the relabel, the walk and Dijkstra each
	// brought D_·k up to date for.
	walked, relabels, walks, runs int
}

// DestSet is a set of destinations over a dense ID space, built to cost
// nothing while empty and one flag test per Add. The zero value is an empty
// set; storage waits for the first Add.
type DestSet struct {
	list []graph.NodeID
	in   []bool
}

// Add puts j, below the ID-space size n, in the set, and reports whether j
// was not in it.
func (s *DestSet) Add(j graph.NodeID, n int) bool {
	if s.in == nil {
		s.list, s.in = make([]graph.NodeID, 0, n), make([]bool, n)
	}
	if s.in[j] {
		return false
	}
	s.in[j] = true
	s.list = append(s.list, j)
	return true
}

// has reports whether j is in the set.
func (s *DestSet) has(j graph.NodeID) bool { return s.in != nil && s.in[j] }

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

// NeighborDists returns the D_·k parallel to Neighbors: row i is the
// distance vector of neighbor Neighbors()[i] (not a copy; callers must not
// mutate it, and it is valid as long as Neighbors' answer).
func (t *Tables) NeighborDists() [][]float64 { return t.nbrDist }

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
// (NTU steps 2 and 3). A new cost for a known link stales the own row and
// the rows whose preferred neighbor the new D_jk + l_ik can move; a new
// neighbor stales every row.
func (t *Tables) SetAdjacent(k graph.NodeID, cost float64) {
	if i, known := t.index(k); known {
		was := t.adj[i]
		if math.Float64bits(was) == math.Float64bits(cost) {
			return
		}
		t.adj[i] = cost
		t.stale.Add(t.id, t.n)
		for j, d := range t.nbrDist[i] {
			t.reconsider(graph.NodeID(j), k, d+was, d+cost)
		}
		return
	}
	t.addAll(&t.stale)
	if t.pos == nil {
		t.pos, t.pref, t.tree.Parent = make([]int32, t.n), make([]preference, t.n), make([]graph.NodeID, t.n)
		for j := range t.pos {
			t.pos[j], t.pref[j], t.tree.Parent[j] = -1, preference{graph.None, math.Inf(1)}, graph.None
		}
		t.merged = &merge{Topology: Topology{rows: make([][]link, t.n)}, into: make([][]inLink, t.n)}
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
// from neighbor k to T_k and brings the distances D_jk from k over T_k up to
// date. LSUs from unknown (down) neighbors are ignored, and so are entries
// naming a node outside the ID space — LSUs arrive from the network. An LSU
// none of whose entries changes T_k (a pure ACK, a repeated report) changes
// nothing else and costs nothing more.
//
// Only a node below a tail whose in-link an entry added, deleted or
// re-priced — a root — can have moved, while T_k is an in-forest rooted at
// k: the path to any other node is the one it had, link for link. So then
// relabel writes the subtrees under the roots and nothing else; when they
// hold more than half the nodes T_k reached before, one walk of the whole
// tree is cheaper and does it. Dijkstra runs only when T_k is no forest,
// which a neighbor reporting its tree makes it only between the halves of a
// diff, or when hostile.
func (t *Tables) ApplyLSU(k graph.NodeID, entries []lsu.Entry) {
	i, ok := t.index(k)
	if !ok {
		return
	}
	topo := t.nbrTopo[i]
	budget := (topo.links + 1) / 2 // the nodes a tree with that many links reaches, halved
	changed := false
	for x, e := range entries {
		if !t.inSpace(e.Head) || !t.inSpace(e.Tail) || !topo.Apply(e) {
			continue
		}
		changed = true
		if t.pref[e.Head].k == k { // the merge holds row e.Head of T_k
			t.stale.Add(e.Head, t.n)
		}
		if len(t.roots.List()) > budget {
			continue // more roots than relabel may label: the walk will do
		}
		if t.via == nil {
			t.via = make([]int32, t.n)
		}
		if t.roots.Add(e.Tail, t.n) {
			t.via[e.Tail] = 0
		}
		switch v := t.via[e.Tail]; {
		case e.Op != lsu.OpDelete:
			t.via[e.Tail] = int32(x) + 1
		case v > 0 && entries[v-1].Head == e.Head:
			t.via[e.Tail] = 0
		}
	}
	if !changed {
		return
	}
	switch {
	case !topo.inForest(k):
		t.runs++
		t.commit(i, t.sp.Run(topo, k).Dist)
	case !t.relabel(i, k, entries, budget):
		t.walks++
		t.commit(i, t.treeDistances(topo, k))
	default:
		t.relabels++
	}
	t.roots.Reset()
}

// relabel labels the subtrees of T_k, an in-forest rooted at k, under the
// roots ApplyLSU collected: a root from the entry that set its in-link
// (dist[head] + cost, the head's new label if it has one), infinite when it
// has none, 0 when it is k; below it dist[tail] = dist[head] + cost down
// every link. In a forest a node's label is a function of its one path from
// k, so the order roots come in does not matter: a root labelled before a
// root above it is labelled again from its parent's final label. It gives
// up, having changed nothing, once it has written more than budget labels
// (which also ends a cycle under a root), at a cost Dijkstra would not relax
// over, or at a root with an in-link no entry of the LSU set.
func (t *Tables) relabel(i int, k graph.NodeID, entries []lsu.Entry, budget int) bool {
	topo, old, w, lab := t.nbrTopo[i], t.nbrDist[i], t.scratch(), &t.labelled
	budget -= len(t.roots.List()) // every root is labelled
	stack, done := t.stack[:0], budget >= 0
	for _, r := range t.roots.List() {
		if !done {
			break
		}
		d := math.Inf(1)
		switch v := t.via[r]; {
		case r == k:
			d = 0
		case v > 0:
			e := entries[v-1]
			if d = old[e.Head]; lab.has(e.Head) {
				d = w[e.Head]
			}
			d += e.Cost
			done = e.Cost >= 0
		default:
			done = topo.in[r] == 0
		}
		w[r] = d
		lab.Add(r, t.n)
		stack = append(stack, r)
		for done && len(stack) > 0 {
			h := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, l := range topo.rows[h] {
				t.walked++
				if !(l.cost >= 0) {
					done = false
					break
				}
				w[l.tail] = w[h] + l.cost
				lab.Add(l.tail, t.n)
				stack = append(stack, l.tail)
			}
			budget -= len(topo.rows[h])
			done = done && budget >= 0
		}
	}
	t.stack = stack[:0]
	if done {
		for _, j := range lab.List() {
			if math.Float64bits(w[j]) != math.Float64bits(old[j]) {
				t.setDist(i, j, w[j])
			}
		}
	}
	lab.Reset()
	return done
}

// commit makes d, a whole vector, the D_·k of the neighbor at position i.
func (t *Tables) commit(i int, d []float64) {
	old := t.nbrDist[i]
	for j, dj := range d {
		if math.Float64bits(dj) != math.Float64bits(old[j]) {
			t.setDist(i, graph.NodeID(j), dj)
		}
	}
}

// setDist writes D_jk = d, bit-wise another value, for the neighbor k at
// position i, marks j, and stales row j where j may prefer another neighbor
// now.
func (t *Tables) setDist(i int, j graph.NodeID, d float64) {
	dist, l := t.nbrDist[i], t.adj[i]
	t.reconsider(j, t.nbrs[i], dist[j]+l, d+l)
	dist[j] = d
	t.moved.Add(j, t.n)
}

// preference is the neighbor a row of the merge was taken from, graph.None
// when it had none, and its offer D_jk + l_ik (+Inf for none).
type preference struct {
	k     graph.NodeID
	offer float64
}

// reconsider stales row j where neighbor k's offer toward j, D_jk + l_ik,
// going from was to now can change j's preferred neighbor p: k is p and its
// offer did not fall, or k is not p and its offer reaches p's (any finite
// offer, when j has no p). Anywhere else p still wins preferred's
// comparison — the least offer, lowest address first — so row j of the
// merge stays current, and p's offer is brought along when it fell.
func (t *Tables) reconsider(j, k graph.NodeID, was, now float64) {
	if t.stale.has(j) {
		return
	}
	switch p := &t.pref[j]; {
	case p.k == k:
		if now <= was {
			p.offer = now
			return
		}
	case !(now <= p.offer) || !(now < math.Inf(1)):
		return
	}
	t.stale.Add(j, t.n)
}

// scratch returns the walks' label vector, grown once.
func (t *Tables) scratch() []float64 {
	if t.walk == nil {
		t.walk = make([]float64, t.n)
	}
	return t.walk
}

// treeDistances returns the distances from src over topo, an in-forest with
// src among its roots, in a vector the next call overwrites. What src reaches
// is a tree, and in a tree every node has one path from the root: labelling
// each link's tail with dist[head] + cost once, in any order, performs the
// additions Dijkstra would and yields the same bits without its heap — an
// infinite sum included, which Dijkstra leaves at its initial +Inf. A cost
// Dijkstra would not relax over (negative, NaN) hands the job to it.
func (t *Tables) treeDistances(topo *Topology, src graph.NodeID) []float64 {
	d, inf := t.scratch(), math.Inf(1)
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
			if !(l.cost >= 0) {
				t.stack = stack
				return t.sp.Run(topo, src).Dist
			}
			d[l.tail] = d[h] + l.cost
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
		p, offer := t.preferred(j)
		t.pref[j] = preference{graph.None, offer}
		if p >= 0 {
			t.pref[j].k, src = t.nbrs[p], t.nbrTopo[p].rows[j]
		}
		if j == t.id {
			t.kept = t.kept[:0]
			for i, k := range t.nbrs {
				t.kept = append(t.kept, link{k, t.adj[i]})
			}
			src = t.kept
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

// remerge makes row j of merged a copy of src, and the in-links of its tails
// agree, and reports whether it was not one already; the tails whose link
// from j was T's and is gone or re-priced go to cut.
func (t *Tables) remerge(j graph.NodeID, src []link) bool {
	m, row, same := t.merged, t.merged.rows[j], true
	for a, b := 0, 0; a < len(row) || b < len(src); {
		switch {
		case b == len(src) || a < len(row) && row[a].tail < src[b].tail: // gone
			m.unlinkIn(j, row[a].tail)
			t.cutIfTree(j, row[a].tail)
			a, same = a+1, false
		case a == len(row) || src[b].tail < row[a].tail: // new
			m.linkIn(j, src[b])
			b, same = b+1, false
		default:
			if math.Float64bits(src[b].cost) != math.Float64bits(row[a].cost) { // re-priced
				m.linkIn(j, src[b])
				t.cutIfTree(j, row[a].tail)
				same = false
			}
			a, b = a+1, b+1
		}
	}
	if same {
		return false
	}
	m.links += len(src) - len(row)
	m.rows[j] = append(row[:0], src...)
	return true
}

// merge is the MTU's merge of the T_k beside its transpose: into[v] lists
// the links into v, ascending by head, which Repair seeds a cut subtree
// from. remerge is the only writer of its rows, and keeps into with them.
type merge struct {
	Topology
	into [][]inLink
}

// inLink is a link of the merge as its tail sees it.
type inLink struct {
	head graph.NodeID
	cost float64
}

// VisitIn implements dijkstra.InView: ascending head ID.
func (m *merge) VisitIn(v graph.NodeID, visit func(graph.NodeID, float64)) {
	for _, l := range m.into[v] {
		visit(l.head, l.cost)
	}
}

// linkIn records h→l.tail, at l.cost, among the tail's in-links.
func (m *merge) linkIn(h graph.NodeID, l link) {
	in := m.into[l.tail]
	if i, found := seekHead(in, h); found {
		in[i].cost = l.cost
	} else {
		m.into[l.tail] = slices.Insert(in, i, inLink{h, l.cost})
	}
}

// unlinkIn removes h→tail from the tail's in-links.
func (m *merge) unlinkIn(h, tail graph.NodeID) {
	in := m.into[tail]
	if i, found := seekHead(in, h); found {
		m.into[tail] = slices.Delete(in, i, i+1)
	}
}

// seekHead returns the position of h's link in in, or where it would go. A
// node has few in-links in the merge: while every T_k is a tree, one per
// neighbor at most and one from the router.
func seekHead(in []inLink, h graph.NodeID) (int, bool) {
	i := 0
	for i < len(in) && in[i].head < h {
		i++
	}
	return i, i < len(in) && in[i].head == h
}

// cutIfTree puts tail in cut when h→tail is a link of the tree.
func (t *Tables) cutIfTree(h, tail graph.NodeID) {
	if t.tree.Parent[tail] == h {
		t.cut = append(t.cut, tail)
	}
}

// preferred returns the position of the neighbor minimizing D_jk + l_ik
// toward j, lowest address among equals, and that offer, or -1 and +Inf
// when j is unreachable through every neighbor.
func (t *Tables) preferred(j graph.NodeID) (int, float64) {
	best, p := math.Inf(1), -1
	for i, l := range t.adj {
		if d := t.nbrDist[i][j] + l; d < best {
			best, p = d, i
		}
	}
	return p, best
}

// PreferredNeighbor returns the neighbor minimizing D_jk + l_ik toward j
// (the next hop single-path routing would use), or graph.None when j is
// unreachable through every neighbor.
func (t *Tables) PreferredNeighbor(j graph.NodeID) graph.NodeID {
	if p, _ := t.preferred(j); p >= 0 {
		return t.nbrs[p]
	}
	return graph.None
}
