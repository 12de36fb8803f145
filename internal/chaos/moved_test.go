package chaos

import (
	"path/filepath"
	"slices"
	"testing"

	"minroute/internal/graph"
	"minroute/internal/lsu"
	"minroute/internal/numeric"
	"minroute/internal/protonet"
	"minroute/internal/router"
	"minroute/internal/telemetry"
)

// movedCheck hosts one agent and, after every event it passes on, holds
// the router to the moved-set contract: every S_j equals the set derived
// from scratch from the D_jk and FD_j as they stand, φ_j is keyed by
// exactly S_j, and the event's IH builds ran in strictly ascending j. The
// agent rebuilds φ_j only for the destinations TakeMoved hands it, in the
// order it hands them, so a changed S_j that TakeMoved left out shows as
// φ_j over the set before the change, and a TakeMoved answer that repeats a
// destination or is out of order shows in the order of the alloc_init
// events.
type movedCheck struct {
	t      *testing.T
	a      *router.Agent
	events *int
	// inits holds the destinations of the event's alloc_init events.
	inits []graph.NodeID
}

// Emit is the agent's sink: it records each IH build's destination.
func (c *movedCheck) Emit(ev telemetry.Event) {
	if ev.Kind == telemetry.KindAllocInit {
		c.inits = append(c.inits, ev.Dst)
	}
}

func (c *movedCheck) HandleLSU(m *lsu.Msg) { c.a.HandleLSU(m); c.check("HandleLSU") }
func (c *movedCheck) LinkUp(k graph.NodeID, cost float64) {
	c.a.LinkUp(k, cost)
	c.check("LinkUp")
}
func (c *movedCheck) LinkCostChange(k graph.NodeID, cost float64) {
	c.a.LinkCostChange(k, cost)
	c.check("LinkCostChange")
}
func (c *movedCheck) LinkDown(k graph.NodeID) { c.a.LinkDown(k); c.check("LinkDown") }

func (c *movedCheck) check(event string) {
	*c.events++
	for i := 1; i < len(c.inits); i++ {
		if c.inits[i-1] >= c.inits[i] {
			c.t.Fatalf("router %d after %s: IH rebuilt φ for %v, not strictly ascending", c.a.Protocol().ID(), event, c.inits)
		}
	}
	c.inits = c.inits[:0]
	r := c.a.Protocol()
	tb := r.Tables()
	for j := graph.NodeID(0); int(j) < tb.NumNodes(); j++ {
		var want []graph.NodeID
		for _, k := range tb.Neighbors() {
			if j != r.ID() && numeric.Closer(tb.NbrDist(j, k), r.FD(j)) {
				want = append(want, k)
			}
		}
		got := r.Successors(j)
		if !slices.Equal(got, want) {
			c.t.Fatalf("router %d after %s: S_%d = %v, derived from scratch %v", r.ID(), event, j, got, want)
		}
		if keys := c.a.Phi(j).Keys(); j != r.ID() && !slices.Equal(keys, got) {
			c.t.Fatalf("router %d after %s: S_%d = %v but φ_%d covers %v: TakeMoved left it out", r.ID(), event, j, got, j, keys)
		}
	}
}

// TestMovedSetMatchesFullRecompute carries the proof obligation of deriving
// S_j only where an event moved its inputs: on schedules that reach every
// branch of the per-event procedure — cold starts on random graphs, the two
// checked-in reproducers, and generated fault schedules with cost changes,
// failures, crashes, restarts and perturbed delivery — no router's S_j ever
// differs from a full recompute, after any event, the agent's φ_j always
// covers exactly S_j, and no event rebuilds a φ_j twice or out of order.
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
		res, err := runProto(s, nil, func(a *router.Agent) protonet.Node {
			c := &movedCheck{t: t, a: a, events: &events}
			a.Observe(c, nil)
			return c
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
