package pda

import (
	"math"
	"testing"

	"minroute/internal/graph"
	"minroute/internal/lsu"
)

// choices reads one choice per byte, and zeros once they run out.
type choices []byte

func (b *choices) intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	c := int((*b)[0]) % n
	*b = (*b)[1:]
	return c
}

// fuzzCosts holds zero, equal-cost ties (1 + 2 against 0.1+0.2 + ...), a cost
// every sum absorbs, and +Inf.
var fuzzCosts = []float64{0, 1, 2, 0.1 + 0.2, 1e300, math.Inf(1)}

// FuzzNeighborDistances drives ApplyLSU with the fuzzer's bytes as LSU
// batches from one neighbor: mostly the diff from T_k to a random tree —
// whole, its deletes first, its halves as two LSUs, or reversed — and some
// arbitrary entries. After every LSU D_·k must be Dijkstra's bit for bit and
// Moved() must name exactly the j whose D_jk changed.
func FuzzNeighborDistances(f *testing.F) {
	f.Add([]byte(nil))
	for op := byte(0); op < 8; op++ {
		f.Add([]byte{0, 1, 1, 2, 0, 3, 1, 1, 1, 2, 0, 1, 3, 1, 5, 2, 1, 2, op, 3, 2, 1, 1, 0, 0, 1, 2, 3, 4, 5, 6, 7})
		f.Add([]byte{op, 9, 8, 7, 6, 5, 4, 3, 2, 1, op, 2, 4, 6, 8, 10, 12, 14, 16, 6, 7, 5, 3, 1})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const n, k = 10, graph.NodeID(0)
		c := choices(data)
		tb := NewTables(n-1, n)
		tb.SetAdjacent(k, 1)
		cost := func() float64 { return fuzzCosts[c.intn(len(fuzzCosts))] }
		node := func() graph.NodeID { return graph.NodeID(c.intn(n)) }
		for batch := 0; len(c) > 0 && batch < 64; batch++ {
			op := c.intn(8)
			if op >= 6 { // arbitrary entries
				es := make([]lsu.Entry, 1+c.intn(4))
				for i := range es {
					es[i] = lsu.Entry{Op: lsu.Op(1 + c.intn(3)), Head: node(), Tail: node(), Cost: cost()}
					if es[i].Op == lsu.OpDelete {
						es[i].Cost = 0
					}
				}
				applyChecked(t, tb, k, es, "arbitrary entries")
				continue
			}
			// A tree rooted at k over the nodes the bytes keep, each joining
			// below one that joined before.
			tree, in := NewTopology(n), []graph.NodeID{k}
			for v := graph.NodeID(1); v < n; v++ {
				if c.intn(4) > 0 {
					tree.Set(in[c.intn(len(in))], v, cost())
					in = append(in, v)
				}
			}
			diff := tree.Diff(tb.NeighborTopo(k))
			split := 0
			for split < len(diff) && diff[split].Op != lsu.OpDelete {
				split++
			}
			switch op {
			case 3:
				diff = append(append([]lsu.Entry(nil), diff[split:]...), diff[:split]...)
			case 4:
				applyChecked(t, tb, k, diff[:split], "a diff's adds")
				diff = diff[split:]
			case 5:
				for i, j := 0, len(diff)-1; i < j; i, j = i+1, j-1 {
					diff[i], diff[j] = diff[j], diff[i]
				}
			}
			applyChecked(t, tb, k, diff, "a diff toward a tree")
		}
	})
}
