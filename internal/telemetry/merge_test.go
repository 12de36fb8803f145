package telemetry

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"

	"minroute/internal/graph"
	"minroute/internal/leaktest"
)

// referenceEvents is the merge Events replaced: tag every retained event of
// the family with its ring ordinal, sort the lot by (T, Seq, ordinal), and
// restamp Seq with the rank.
func referenceEvents(t *Tracer) []Event {
	type tagged struct {
		ev  Event
		ord int
	}
	var all []tagged
	ord := 0
	for _, tr := range append([]*Tracer{t}, t.sibs...) {
		for i := range tr.rings {
			r := &tr.rings[i]
			for _, rec := range slices.Concat(r.buf[r.head:], r.buf[:r.head]) {
				ev := Event{
					T: rec.T, Seq: rec.Seq, Kind: rec.Kind, Router: rec.Router, Peer: rec.Peer,
					Dst: rec.Dst, Flow: rec.Flow, Pkt: rec.Pkt, Value: rec.Value,
				}
				if rec.label != 0 {
					ev.Label = tr.labels[rec.label-1]
				}
				all = append(all, tagged{ev, ord})
			}
			ord++
		}
	}
	slices.SortFunc(all, func(a, b tagged) int {
		//lint:floateq-ok sort comparators need a strict weak order; tolerant equality is not transitive
		if a.ev.T != b.ev.T {
			return cmp.Compare(a.ev.T, b.ev.T)
		}
		if c := cmp.Compare(a.ev.Seq, b.ev.Seq); c != 0 {
			return c
		}
		return cmp.Compare(a.ord, b.ord)
	})
	out := make([]Event, len(all))
	for i := range all {
		out[i] = all[i].ev
		out[i].Seq = uint64(i) + 1
	}
	return out
}

// TestEventsMergeMatchesSort holds the k-way merge to the sort it replaced
// on the inputs where a merge could go wrong: a ring whose emitter's clock
// steps back (it must be sorted before merging), sibling tracers whose
// origin priorities interleave and whose serials collide (the ring ordinal
// breaks the tie), rings that wrapped, and labels interned in two siblings'
// separate tables.
func TestEventsMergeMatchesSort(t *testing.T) {
	leaktest.Check(t)
	rng := rand.New(rand.NewPCG(1, 2))
	ev := func(tm float64, r graph.NodeID, label string) Event {
		e := NewEvent(tm, Kind(rng.IntN(int(numKinds))), r)
		e.Value, e.Label = rng.Float64(), label
		return e
	}
	cases := []struct {
		name  string
		build func() *Tracer
	}{
		{"non-monotone", func() *Tracer {
			tr := NewTracer(3, 0)
			for i := range 500 {
				r := graph.NodeID(rng.IntN(4)) - 1
				tm := float64(i) / 10
				if r == 1 {
					tm = float64(rng.IntN(20)) // router 1's clock jumps both ways
				}
				tr.Emit(ev(tm, r, ""))
			}
			return tr
		}},
		{"forked-origins", func() *Tracer {
			root := NewTracer(4, 0)
			fam := []*Tracer{root, root.Fork(), root.Fork()}
			pri := make([]uint64, len(fam))
			for s, tr := range fam {
				if s > 0 { // the root stamps priority 0, like a single-engine user
					tr.SetOrigin(func() uint64 { return pri[s] })
				}
			}
			for i := range 900 {
				s := rng.IntN(len(fam))
				pri[s] = uint64(rng.IntN(3))*uint64(len(fam)) + uint64(s)
				fam[s].Emit(ev(float64(i/30), graph.NodeID(rng.IntN(4)), ""))
			}
			return root
		}},
		{"wrapped", func() *Tracer {
			root := NewTracer(2, 8)
			sib := root.Fork()
			for i := range 300 {
				tm := float64(i)
				if i%7 == 0 {
					tm -= 20 // some survivors land out of order across the wrap point
				}
				root.Emit(ev(tm, graph.NodeID(rng.IntN(3)), ""))
				sib.Emit(ev(float64(i), graph.NodeID(rng.IntN(3)), ""))
			}
			return root
		}},
		{"labels", func() *Tracer {
			root := NewTracer(2, 0)
			sib := root.Fork()
			names := []string{"crash 1", "restart 1", "fast", "rto", "link-fail 0-1"}
			for i := range 200 {
				tr, label := root, ""
				if i%2 == 1 {
					tr = sib
				}
				if rng.IntN(3) == 0 {
					label = names[rng.IntN(len(names))]
				}
				tr.Emit(ev(float64(i/4), graph.NodeID(rng.IntN(3))-1, label))
			}
			return root
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := c.build()
			want := referenceEvents(tr)
			got := tr.Events()
			if len(got) != len(want) {
				t.Fatalf("merged %d events, the sort %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("event %d: merge %+v, sort %+v", i, got[i], want[i])
				}
			}
		})
	}
}
