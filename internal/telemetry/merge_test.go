package telemetry

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"

	"minroute/internal/graph"
	"minroute/internal/leaktest"
)

// referenceEvents is the merge Events replaced: gather every retained
// event of both rings, sort the lot by (T, Seq), and restamp Seq with the
// rank.
func referenceEvents(t *Tracer) []Event {
	var all []Event
	for b := range t.rings {
		r := &t.rings[b]
		for _, rec := range slices.Concat(r.buf[r.head:], r.buf[:r.head]) {
			ev := Event{
				T: rec.T, Seq: rec.Seq, Kind: rec.Kind, Router: rec.Router, Peer: rec.Peer,
				Dst: rec.Dst, Flow: rec.Flow, Pkt: rec.Pkt, Value: rec.Value,
			}
			if rec.label != 0 {
				ev.Label = t.labels[rec.label-1]
			}
			all = append(all, ev)
		}
	}
	slices.SortFunc(all, func(a, b Event) int {
		if a.T != b.T {
			return cmp.Compare(a.T, b.T)
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	for i := range all {
		all[i].Seq = uint64(i) + 1
	}
	return all
}

// TestEventsMergeMatchesSort holds the two-way merge to the sort it
// replaced on the inputs where a merge could go wrong: an emitter whose
// clock steps back (its ring must be sorted before merging), rings that
// wrapped, and labels.
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
		{"wrapped", func() *Tracer {
			tr := NewTracer(2, 8)
			for i := range 600 {
				tm := float64(i / 2)
				if i%14 == 0 {
					tm -= 20 // some survivors land out of order across the wrap point
				}
				tr.Emit(ev(tm, graph.NodeID(rng.IntN(3)), ""))
			}
			return tr
		}},
		{"labels", func() *Tracer {
			tr := NewTracer(2, 0)
			names := []string{"crash 1", "restart 1", "fast", "rto", "link-fail 0-1"}
			for i := range 200 {
				label := ""
				if rng.IntN(3) == 0 {
					label = names[rng.IntN(len(names))]
				}
				tr.Emit(ev(float64(i/4), graph.NodeID(rng.IntN(3))-1, label))
			}
			return tr
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
