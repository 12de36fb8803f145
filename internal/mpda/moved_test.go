package mpda

import (
	"fmt"
	"slices"
	"testing"

	"minroute/internal/graph"
	"minroute/internal/lsu"
	"minroute/internal/protonet"
	"minroute/internal/rng"
	"minroute/internal/topo"
)

// movedProbe hosts one router and, after every event it passes on, holds
// TakeMoved to exactly the destinations whose S_j differs from what it was
// before the event.
type movedProbe struct {
	t    *testing.T
	r    *Router
	was  [][]graph.NodeID // S_j after the previous event
	what string
	// events counts the router events checked, named the S_j changes seen.
	events, named *int
}

func (p *movedProbe) HandleLSU(m *lsu.Msg) { p.r.HandleLSU(m); p.check("an LSU") }
func (p *movedProbe) LinkUp(k graph.NodeID, cost float64) {
	p.r.LinkUp(k, cost)
	p.check("a link up")
}
func (p *movedProbe) LinkCostChange(k graph.NodeID, cost float64) {
	p.r.LinkCostChange(k, cost)
	p.check("a cost change")
}
func (p *movedProbe) LinkDown(k graph.NodeID) { p.r.LinkDown(k); p.check("a link down") }

func (p *movedProbe) check(event string) {
	*p.events++
	var want []graph.NodeID
	for j := range p.was {
		if now := p.r.Successors(graph.NodeID(j)); !slices.Equal(p.was[j], now) {
			want = append(want, graph.NodeID(j))
			p.was[j] = slices.Clone(now)
		}
	}
	*p.named += len(want)
	if got := p.r.TakeMoved(); !slices.Equal(got, want) {
		p.t.Fatalf("%s: router %d after %s: TakeMoved = %v, the S_j that changed are %v", p.what, p.r.ID(), event, got, want)
	}
}

// TestTakeMovedIsExact runs the shapes of
// TestMPDAPropertyRandomGraphsRandomSchedules — 3–10 routers, 0–9 extra
// links, the cold start — and then a schedule of cost changes, failures and
// recoveries, and after every router event holds TakeMoved to exactly the
// destinations whose successor set the event changed: none left out, and
// none whose S_j was re-derived or re-tested to the set it had.
func TestTakeMovedIsExact(t *testing.T) {
	events, named := 0, 0
	for seed := uint64(0); seed < 40; seed++ {
		n := 3 + int(seed%8)
		g := topo.Random(seed, n, int(seed*7%10), 1e6, 1e7, 1e-3)
		net := protonet.New(g, seed^0x5eed)
		what := fmt.Sprintf("seed %d", seed)
		for _, id := range g.Nodes() {
			p := &movedProbe{t: t, r: NewRouter(id, n, net.Sender(id)), was: make([][]graph.NodeID, n), what: what, events: &events, named: &named}
			net.Attach(id, p)
		}
		net.BringUpAll(topo.PropCost)
		net.Run(2_000_000)
		r := rng.New(seed)
		for step := 0; step < 6; step++ {
			links := g.Links()
			if len(links) == 0 {
				break
			}
			l := links[r.Intn(len(links))]
			switch r.Intn(3) {
			case 0:
				net.ChangeCost(l.From, l.To, topo.PropCost(l)*float64(1+r.Intn(4)))
			case 1:
				a, b := l.From, l.To
				net.FailLink(a, b)
				net.Run(2_000_000)
				net.RestoreLink(a, b, 1e6, 1e-3, topo.PropCost(&graph.Link{PropDelay: 1e-3}))
			default:
				net.FailLink(l.From, l.To)
			}
			net.Run(2_000_000)
		}
	}
	if events < 10_000 {
		t.Fatalf("only %d router events checked", events)
	}
	t.Logf("%d router events checked (%d S_j changes named)", events, named)
}
