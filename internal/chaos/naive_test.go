package chaos

import (
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
		agents := make(map[graph.NodeID]*router.Agent)
		looped := 0
		res, err := runProto(Generate(seed), nil, func(a *router.Agent) protonet.Node {
			agents[a.Protocol().ID()] = a
			return &naiveCheck{t: t, a: a, agents: agents, looped: &looped}
		})
		if err != nil {
			t.Fatal(err)
		}
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
