package chaos

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"minroute/internal/graph"
	"minroute/internal/lsu"
	"minroute/internal/mpda"
	"minroute/internal/protonet"
	"minroute/internal/router"
)

// stateFields names what mpda.Router.AppendState encodes, in its order.
var stateFields = [...]string{"phase", "D_j", "FD_j", "S_j", "owed ACKs"}

// routerView is one router's state read through its exported accessors.
type routerView struct {
	active bool
	d, fd  []uint64 // exact float bits
	succ   [][]graph.NodeID
	owed   []int
}

func viewOf(r *mpda.Router) routerView {
	n := r.Tables().NumNodes()
	v := routerView{active: r.Active(), d: make([]uint64, n), fd: make([]uint64, n), succ: make([][]graph.NodeID, n), owed: make([]int, n)}
	for j := graph.NodeID(0); int(j) < n; j++ {
		v.d[j] = math.Float64bits(r.Dist(j))
		v.fd[j] = math.Float64bits(r.FD(j))
		v.succ[j] = slices.Clone(r.Successors(j))
		v.owed[j] = r.Owed(j)
	}
	return v
}

// moved reports, per stateFields entry, whether it differs between v and w.
func (v routerView) moved(w routerView) [len(stateFields)]bool {
	return [...]bool{
		v.active != w.active,
		!slices.Equal(v.d, w.d),
		!slices.Equal(v.fd, w.fd),
		!slices.EqualFunc(v.succ, w.succ, slices.Equal),
		!slices.Equal(v.owed, w.owed),
	}
}

// stateCheck hosts one agent and, after every event it passes on, holds
// the router's AppendState to the accessors: the encoding changed since
// the router's previous event exactly when its phase, some D_j, FD_j or
// S_j, or some owed-ACK count did.
type stateCheck struct {
	t     *testing.T
	a     *router.Agent
	view  routerView
	enc   []byte
	stats *stateStats
}

// stateStats tallies the checked events: how many moved the state, and
// per field how many moved that field and nothing else.
type stateStats struct {
	events, changed int
	alone           [len(stateFields)]int
}

func newStateCheck(t *testing.T, a *router.Agent, stats *stateStats) *stateCheck {
	return &stateCheck{t: t, a: a, view: viewOf(a.Protocol()), enc: a.Protocol().AppendState(nil), stats: stats}
}

func (c *stateCheck) HandleLSU(m *lsu.Msg) { c.a.HandleLSU(m); c.check("HandleLSU") }
func (c *stateCheck) LinkUp(k graph.NodeID, cost float64) {
	c.a.LinkUp(k, cost)
	c.check("LinkUp")
}
func (c *stateCheck) LinkCostChange(k graph.NodeID, cost float64) {
	c.a.LinkCostChange(k, cost)
	c.check("LinkCostChange")
}
func (c *stateCheck) LinkDown(k graph.NodeID) { c.a.LinkDown(k); c.check("LinkDown") }

func (c *stateCheck) check(event string) {
	r := c.a.Protocol()
	view, enc := viewOf(r), r.AppendState(nil)
	moved := c.view.moved(view)
	var fields []string
	for i, m := range moved {
		if m {
			fields = append(fields, stateFields[i])
		}
	}
	if encMoved := !bytes.Equal(c.enc, enc); encMoved != (len(fields) > 0) {
		c.t.Fatalf("router %d after %s: encoding moved=%v, but the accessors moved %v", r.ID(), event, encMoved, fields)
	}
	c.stats.events++
	if len(fields) > 0 {
		c.stats.changed++
	}
	if len(fields) == 1 {
		c.stats.alone[slices.Index(stateFields[:], fields[0])]++
	}
	c.view, c.enc = view, enc
}

// TestAppendStateTracksAccessors is the differential test of the router's
// one state encoding over real schedules: on generated fault schedules —
// cost changes, failures, crashes, restarts, perturbed delivery — a
// router's AppendState output changes at an event exactly when its phase,
// a D_j, an FD_j, an S_j or an owed-ACK count does. The schedules must move
// D_j, S_j and the owed ACKs each on its own at some event, so the test
// would see any of those left out of the encoding. The phase never moves
// without the owed ACKs, nor FD_j without D_j or the owed ACKs (it falls in
// a PASSIVE MTU and rises when the last ACK is in), so those two have
// teeth in mpda's TestAppendStateCoversEveryField alone.
func TestAppendStateTracksAccessors(t *testing.T) {
	var stats stateStats
	for seed := uint64(0); seed < 50; seed++ {
		s := Generate(seed)
		res, err := runProto(s, nil, func(a *router.Agent) protonet.Node { return newStateCheck(t, a, &stats) })
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if res.Failed() {
			t.Fatalf("%s: %v", s.Name, res.Log.Violations)
		}
	}
	t.Logf("%d events, %d moved the state; moved alone: %v %v", stats.events, stats.changed, stateFields, stats.alone)
	if stats.events < 10_000 || stats.changed == stats.events {
		t.Fatalf("%d events checked, %d of them moved the state", stats.events, stats.changed)
	}
	for _, i := range []int{1, 3, 4} {
		if stats.alone[i] == 0 {
			t.Errorf("no event moved %s alone", stateFields[i])
		}
	}
}
