package chaos

import (
	"path/filepath"
	"slices"
	"testing"

	"minroute/internal/graph"
	"minroute/internal/lsu"
	"minroute/internal/mpda"
	"minroute/internal/numeric"
	"minroute/internal/protonet"
)

// movedCheck hosts one router and, after every event it passes on, holds
// the router to the moved-set contract: every S_j equals the set derived
// from scratch from the D_jk and FD_j as they stand, and every destination
// whose S_j differs from before the event is in TakeMoved's answer, which
// ascends strictly (so repeats nothing).
type movedCheck struct {
	t      *testing.T
	r      *mpda.Router
	before [][]graph.NodeID
	events *int
}

func (c *movedCheck) HandleLSU(m *lsu.Msg) { c.r.HandleLSU(m); c.check("HandleLSU") }
func (c *movedCheck) LinkUp(k graph.NodeID, cost float64) {
	c.r.LinkUp(k, cost)
	c.check("LinkUp")
}
func (c *movedCheck) LinkCostChange(k graph.NodeID, cost float64) {
	c.r.LinkCostChange(k, cost)
	c.check("LinkCostChange")
}
func (c *movedCheck) LinkDown(k graph.NodeID) { c.r.LinkDown(k); c.check("LinkDown") }

func (c *movedCheck) check(event string) {
	*c.events++
	tb := c.r.Tables()
	moved := c.r.TakeMoved()
	for i := 1; i < len(moved); i++ {
		if moved[i-1] >= moved[i] {
			c.t.Fatalf("router %d after %s: TakeMoved = %v does not ascend strictly", c.r.ID(), event, moved)
		}
	}
	if c.before == nil {
		c.before = make([][]graph.NodeID, tb.NumNodes())
	}
	for j := graph.NodeID(0); int(j) < tb.NumNodes(); j++ {
		var want []graph.NodeID
		for _, k := range tb.Neighbors() {
			if j != c.r.ID() && numeric.Closer(tb.NbrDist(j, k), c.r.FD(j)) {
				want = append(want, k)
			}
		}
		got := c.r.Successors(j)
		if !slices.Equal(got, want) {
			c.t.Fatalf("router %d after %s: S_%d = %v, derived from scratch %v (moved %v)", c.r.ID(), event, j, got, want, moved)
		}
		if _, reported := slices.BinarySearch(moved, j); !reported && !slices.Equal(got, c.before[j]) {
			c.t.Fatalf("router %d after %s: S_%d went %v -> %v, TakeMoved = %v", c.r.ID(), event, j, c.before[j], got, moved)
		}
		c.before[j] = append(c.before[j][:0], got...)
	}
}

// TestMovedSetMatchesFullRecompute carries the proof obligation of deriving
// S_j only where an event moved its inputs: on schedules that reach every
// branch of the per-event procedure — cold starts on random graphs, the two
// checked-in reproducers, and generated fault schedules with cost changes,
// failures, crashes, restarts and perturbed delivery — no router's S_j ever
// differs from a full recompute, after any event, and the set handed to the
// host covers every change.
func TestMovedSetMatchesFullRecompute(t *testing.T) {
	var scenarios []*Scenario
	for seed := uint64(0); seed < 20; seed++ {
		// The shapes of mpda's TestMPDAPropertyRandomGraphsRandomSchedules:
		// 3–10 nodes, 0–9 extra links, nothing but the cold start.
		scenarios = append(scenarios, &Scenario{
			Name: "cold", Topo: TopoRandom, Seed: seed ^ 0x5eed, Duration: 1,
			TopoSeed: seed, TopoN: 3 + int(seed%8), TopoExtra: int(seed * 7 % 10),
		})
	}
	fixtures, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no fixtures under testdata/ (%v)", err)
	}
	for _, path := range fixtures {
		s, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		scenarios = append(scenarios, s)
	}
	for seed := uint64(0); seed < 60; seed++ {
		scenarios = append(scenarios, Generate(seed))
	}

	events := 0
	for _, s := range scenarios {
		res, err := runProto(s, nil, func(r *mpda.Router) protonet.Node {
			return &movedCheck{t: t, r: r, events: &events}
		})
		if err != nil {
			t.Fatalf("%s seed %d: %v", s.Name, s.Seed, err)
		}
		if res.Failed() {
			t.Fatalf("%s seed %d: %v", s.Name, s.Seed, res.Log.Violations)
		}
	}
	if events < 10_000 {
		t.Fatalf("only %d events checked", events)
	}
}
