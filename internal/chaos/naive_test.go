package chaos

import (
	"os"
	"path/filepath"
	"testing"

	"minroute/internal/graph"
	"minroute/internal/lfi"
	"minroute/internal/lsu"
	"minroute/internal/numeric"
	"minroute/internal/pda"
	"minroute/internal/protonet"
	"minroute/internal/router"
)

// naiveView is a router's successor sets without the Loop-Free Invariant:
// S_j = {k : D_jk < D_j}, read from its own tables, with no feasible
// distance and no wait for ACKs.
type naiveView struct{ tb *pda.Tables }

func (v naiveView) ID() graph.NodeID          { return v.tb.ID() }
func (v naiveView) FD(j graph.NodeID) float64 { return v.tb.Dist(j) }
func (v naiveView) Successors(j graph.NodeID) []graph.NodeID {
	if j == v.tb.ID() {
		return nil
	}
	var s []graph.NodeID
	for _, k := range v.tb.Neighbors() {
		if numeric.Closer(v.tb.NbrDist(j, k), v.tb.Dist(j)) {
			s = append(s, k)
		}
	}
	return s
}

// naiveCheck hosts one agent and, after every event it passes on, runs the
// acyclicity check over every router twice: on naive views of their
// tables, and on MPDA's own successor sets.
type naiveCheck struct {
	t      *testing.T
	a      *router.Agent
	agents map[graph.NodeID]*router.Agent // every router's current agent
	looped *int                           // events after which the naive views looped
}

func (c *naiveCheck) HandleLSU(m *lsu.Msg) { c.a.HandleLSU(m); c.check() }
func (c *naiveCheck) LinkUp(k graph.NodeID, cost float64) {
	c.a.LinkUp(k, cost)
	c.check()
}
func (c *naiveCheck) LinkCostChange(k graph.NodeID, cost float64) {
	c.a.LinkCostChange(k, cost)
	c.check()
}
func (c *naiveCheck) LinkDown(k graph.NodeID) { c.a.LinkDown(k); c.check() }

func (c *naiveCheck) check() {
	naive := make(map[graph.NodeID]lfi.RouterView, len(c.agents))
	own := make(map[graph.NodeID]lfi.RouterView, len(c.agents))
	for id, a := range c.agents {
		naive[id] = naiveView{a.Protocol().Tables()}
		own[id] = a.Protocol()
	}
	n := c.a.Protocol().Tables().NumNodes()
	if lfi.CheckAllDestinations(n, naive) != nil {
		*c.looped++
	}
	if err := lfi.CheckAllDestinations(n, own); err != nil {
		c.t.Fatalf("MPDA's own successor sets: %v", err)
	}
}

// TestNaiveSuccessorsLoop is the loop-freedom oracle's negative control:
// the rule MPDA's feasible distances and ACK waits refine — take every
// neighbor that reports a shorter distance — loops on the same generated
// fault schedules on which MPDA's successor sets stay acyclic after every
// event. So a pass of the loop-free oracle means something. (The oracle
// itself, oracle.LoopFree, also checks the FD ordering that the naive
// views have no FD for, so the control uses acyclicity alone.)
func TestNaiveSuccessorsLoop(t *testing.T) {
	const firstLoopingSeed = 1
	for seed := uint64(0); seed < 10; seed++ {
		looped, res := runNaive(t, Generate(seed))
		if res.Failed() {
			t.Fatalf("seed %d: %v", seed, res.Log.Violations)
		}
		if looped == 0 {
			continue
		}
		t.Logf("seed %d: naive successor sets looped after %d router events (%d delivery attempts)", seed, looped, res.Events)
		if seed != firstLoopingSeed {
			t.Errorf("naive successor sets first looped at seed %d, pinned %d", seed, firstLoopingSeed)
		}
		return
	}
	t.Fatal("naive successor sets never looped over Generate(0..9)")
}

// runNaive replays s on the proto runner with every router hosted by a
// naiveCheck, and returns after how many router events the naive views
// looped beside the run's result. MPDA's own views looping fails t.
func runNaive(t *testing.T, s *Scenario) (int, *Result) {
	t.Helper()
	agents := make(map[graph.NodeID]*router.Agent)
	looped := 0
	res, err := runProto(s, nil, func(a *router.Agent) protonet.Node {
		agents[a.Protocol().ID()] = a
		return &naiveCheck{t: t, a: a, agents: agents, looped: &looped}
	})
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	return looped, res
}

// TestNaiveLoopFixture replays the negative control's smallest case:
// testdata/naive-loop.json is Generate(1) with its fault schedule shrunk by
// Shrink while the naive views still loop. On it the naive views must loop
// and MPDA's must stay acyclic and pass every oracle, on both runners.
// Re-take the fixture (and, with it, its trace hash) with
//
//	CHAOS_UPDATE=1 go test -run 'TestNaiveLoopFixture|TestFixturesReplay' ./internal/chaos
func TestNaiveLoopFixture(t *testing.T) {
	path := filepath.Join("testdata", "naive-loop.json")
	if os.Getenv("CHAOS_UPDATE") != "" {
		shrunk := Shrink(Generate(1), func(s *Scenario) bool {
			looped, _ := runNaive(t, s)
			return looped > 0
		})
		shrunk.Name = "naive-loop"
		if err := shrunk.Save(path); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	looped, res := runNaive(t, s)
	if looped == 0 {
		t.Fatalf("%s: the naive successor sets never looped", path)
	}
	if res.Failed() {
		t.Fatalf("%s: proto runner: %v", path, res.Log.Violations)
	}
	des, err := RunDES(s)
	if err != nil {
		t.Fatal(err)
	}
	if des.Failed() {
		t.Fatalf("%s: DES runner: %v", path, des.Log.Violations)
	}
	t.Logf("%d actions of Generate(1)'s %d: naive views looped after %d router events", len(s.Actions), len(Generate(1).Actions), looped)
}
