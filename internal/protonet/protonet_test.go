package protonet

import (
	"testing"

	"minroute/internal/graph"
	"minroute/internal/lsu"
	"minroute/internal/topo"
)

// recorder is a Node that records events and can reply.
type recorder struct {
	id       graph.NodeID
	received []*lsu.Msg
	ups      []graph.NodeID
	downs    []graph.NodeID
	costs    map[graph.NodeID]float64
	onLSU    func(m *lsu.Msg)
}

func newRecorder(id graph.NodeID) *recorder {
	return &recorder{id: id, costs: make(map[graph.NodeID]float64)}
}

func (r *recorder) HandleLSU(m *lsu.Msg) {
	r.received = append(r.received, m)
	if r.onLSU != nil {
		r.onLSU(m)
	}
}
func (r *recorder) LinkUp(k graph.NodeID, cost float64)         { r.ups = append(r.ups, k); r.costs[k] = cost }
func (r *recorder) LinkCostChange(k graph.NodeID, cost float64) { r.costs[k] = cost }
func (r *recorder) LinkDown(k graph.NodeID)                     { r.downs = append(r.downs, k) }

func ring3(t *testing.T) (*Net, map[graph.NodeID]*recorder) {
	t.Helper()
	g := topo.Ring(3, 1e6, 1e-3)
	net := New(g, 1)
	recs := map[graph.NodeID]*recorder{}
	for _, id := range g.Nodes() {
		r := newRecorder(id)
		recs[id] = r
		net.Attach(id, r)
	}
	return net, recs
}

func TestBringUpAllNotifiesBothEnds(t *testing.T) {
	net, recs := ring3(t)
	net.BringUpAll(func(l *graph.Link) float64 { return 1 })
	for id, r := range recs {
		if len(r.ups) != 2 {
			t.Fatalf("node %d saw %d link-ups, want 2", id, len(r.ups))
		}
	}
}

func TestPerLinkFIFO(t *testing.T) {
	net, recs := ring3(t)
	send := net.Sender(0)
	for i := 0; i < 5; i++ {
		send(1, &lsu.Msg{From: 0, Entries: []lsu.Entry{{Op: lsu.OpAdd, Head: 0, Tail: graph.NodeID(i), Cost: float64(i)}}})
	}
	for left := 5; left > 0; left-- {
		if net.Pending() != left {
			t.Fatalf("Pending() = %d with %d messages queued", net.Pending(), left)
		}
		if !net.Step() {
			t.Fatalf("Step found nothing to deliver with %d messages queued", left)
		}
	}
	if net.Pending() != 0 || net.Step() {
		t.Fatalf("Pending() = %d after the last delivery", net.Pending())
	}
	got := recs[1].received
	if len(got) != 5 {
		t.Fatalf("delivered %d messages", len(got))
	}
	for i, m := range got {
		if m.Entries[0].Tail != graph.NodeID(i) {
			t.Fatalf("FIFO violated: message %d has tail %d", i, m.Entries[0].Tail)
		}
	}
}

func TestSenderDropsWhenLinkMissing(t *testing.T) {
	net, recs := ring3(t)
	send := net.Sender(0)
	net.FailLink(0, 1)
	send(1, &lsu.Msg{From: 0, Ack: true})
	net.Run(10)
	if len(recs[1].received) != 0 {
		t.Fatal("message crossed a failed link")
	}
}

func TestFailLinkDropsQueuedAndNotifies(t *testing.T) {
	net, recs := ring3(t)
	net.Sender(0)(1, &lsu.Msg{From: 0, Ack: true})
	net.Sender(0)(1, &lsu.Msg{From: 0, Ack: true})
	net.Sender(1)(0, &lsu.Msg{From: 1, Ack: true})
	net.Sender(1)(2, &lsu.Msg{From: 1, Ack: true})
	if net.Pending() != 4 {
		t.Fatalf("Pending() = %d with 4 messages queued", net.Pending())
	}
	net.FailLink(0, 1)
	if net.Pending() != 1 {
		t.Fatalf("Pending() = %d after the failure, want the 1 message on 1->2", net.Pending())
	}
	if !net.Step() || len(recs[2].received) != 1 || len(recs[0].received)+len(recs[1].received) != 0 {
		t.Fatal("the surviving link's message was not the one delivered")
	}
	if net.Pending() != 0 || net.Step() {
		t.Fatalf("queued messages survived failure: %d", net.Pending())
	}
	if len(recs[0].downs) != 1 || recs[0].downs[0] != 1 {
		t.Fatalf("node 0 downs = %v", recs[0].downs)
	}
	if len(recs[1].downs) != 1 || recs[1].downs[0] != 0 {
		t.Fatalf("node 1 downs = %v", recs[1].downs)
	}
}

func TestRestoreLink(t *testing.T) {
	net, recs := ring3(t)
	net.FailLink(0, 1)
	net.RestoreLink(0, 1, 1e6, 1e-3, 2.0)
	if recs[0].costs[1] != 2.0 || recs[1].costs[0] != 2.0 {
		t.Fatal("restore did not notify both ends")
	}
	// The link must carry messages again.
	net.Sender(0)(1, &lsu.Msg{From: 0, Ack: true})
	net.Run(10)
	if len(recs[1].received) != 1 {
		t.Fatal("restored link does not deliver")
	}
}

func TestChangeCostNotifiesOwner(t *testing.T) {
	net, recs := ring3(t)
	net.ChangeCost(0, 1, 9.5)
	if recs[0].costs[1] != 9.5 {
		t.Fatal("cost change not delivered")
	}
}

func TestChangeCostMissingLinkPanics(t *testing.T) {
	net, _ := ring3(t)
	net.FailLink(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("ChangeCost on missing link did not panic")
		}
	}()
	net.ChangeCost(0, 1, 1)
}

func TestAttachTwicePanics(t *testing.T) {
	net, _ := ring3(t)
	defer func() {
		if recover() == nil {
			t.Fatal("double Attach did not panic")
		}
	}()
	net.Attach(0, newRecorder(0))
}

func TestRunBudgetPanics(t *testing.T) {
	net, recs := ring3(t)
	// Infinite chatter: each delivery triggers a new message.
	recs[1].onLSU = func(m *lsu.Msg) {
		net.Sender(1)(0, &lsu.Msg{From: 1, Ack: true})
	}
	recs[0].onLSU = func(m *lsu.Msg) {
		net.Sender(0)(1, &lsu.Msg{From: 0, Ack: true})
	}
	net.Sender(0)(1, &lsu.Msg{From: 0, Ack: true})
	defer func() {
		if recover() == nil {
			t.Fatal("runaway protocol did not trip the budget")
		}
	}()
	net.Run(100)
}

func TestDeliveredCounterAndOnDeliver(t *testing.T) {
	net, _ := ring3(t)
	calls := 0
	net.OnDeliver = func() { calls++ }
	net.Sender(0)(1, &lsu.Msg{From: 0, Ack: true})
	net.Sender(1)(2, &lsu.Msg{From: 1, Ack: true})
	n := net.Run(100)
	if n != 2 || net.Delivered() != 2 || calls != 2 {
		t.Fatalf("delivered=%d total=%d hooks=%d", n, net.Delivered(), calls)
	}
}

func TestPerturbLossDelaysButDelivers(t *testing.T) {
	net, recs := ring3(t)
	net.SetPerturb(Perturb{LossProb: 1}) // every attempt lost until the cap forces delivery
	for i := 0; i < 3; i++ {
		net.Sender(0)(1, &lsu.Msg{From: 0, Entries: []lsu.Entry{{Op: lsu.OpAdd, Head: 0, Tail: graph.NodeID(i), Cost: 1}}})
	}
	net.Run(100)
	got := recs[1].received
	if len(got) != 3 {
		t.Fatalf("delivered %d messages under total loss, want 3 (eventual delivery)", len(got))
	}
	for i, m := range got {
		if m.Entries[0].Tail != graph.NodeID(i) {
			t.Fatalf("retransmission broke FIFO: message %d has tail %d", i, m.Entries[0].Tail)
		}
	}
	// Each message burns DefaultMaxAttempts-1 losses plus the forced delivery.
	if want := 3 * DefaultMaxAttempts; net.Attempts() != want {
		t.Fatalf("attempts = %d, want %d", net.Attempts(), want)
	}
}

func TestPerturbDupNeverReachesProtocol(t *testing.T) {
	net, recs := ring3(t)
	net.SetPerturb(Perturb{DupProb: 1}) // every frame duplicated on the wire
	net.Sender(0)(1, &lsu.Msg{From: 0, Ack: true})
	net.Sender(0)(1, &lsu.Msg{From: 0, Ack: true})
	hooks := 0
	net.OnDeliver = func() { hooks++ }
	net.Run(100)
	// The ARQ receiver discards the duplicate copies: the protocol sees each
	// message exactly once, while the channel pays an attempt per copy.
	if len(recs[1].received) != 2 || net.Delivered() != 2 || hooks != 2 {
		t.Fatalf("received=%d delivered=%d hooks=%d, want 2 each (exactly-once)",
			len(recs[1].received), net.Delivered(), hooks)
	}
	if net.Attempts() != 4 {
		t.Fatalf("attempts = %d, want 4 (each frame + its duplicate)", net.Attempts())
	}
}

func TestFailLinkResetsLossCounter(t *testing.T) {
	net, recs := ring3(t)
	net.SetPerturb(Perturb{LossProb: 1})
	net.Sender(0)(1, &lsu.Msg{From: 0, Ack: true})
	net.Step() // one loss accrues on the head message
	net.FailLink(0, 1)
	net.RestoreLink(0, 1, 1e6, 1e-3, 1)
	net.Sender(0)(1, &lsu.Msg{From: 0, Ack: true})
	before := net.Attempts()
	net.Run(100)
	// A fresh message on the restored link gets the full retry budget.
	if got := net.Attempts() - before; got != DefaultMaxAttempts {
		t.Fatalf("attempts after restore = %d, want %d", got, DefaultMaxAttempts)
	}
	if len(recs[1].received) != 1 {
		t.Fatalf("received %d messages", len(recs[1].received))
	}
}

func TestDetachAllowsReattach(t *testing.T) {
	net, _ := ring3(t)
	net.FailLink(0, 1)
	net.FailLink(0, 2)
	net.Detach(0)
	net.Attach(0, newRecorder(0)) // restart: a fresh instance takes the slot
}

func TestDetachWithLiveLinksPanics(t *testing.T) {
	net, _ := ring3(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Detach with live links did not panic")
		}
	}()
	net.Detach(0)
}

func TestDetachUnattachedPanics(t *testing.T) {
	net, _ := ring3(t)
	net.FailLink(0, 1)
	net.FailLink(0, 2)
	net.Detach(0)
	defer func() {
		if recover() == nil {
			t.Fatal("double Detach did not panic")
		}
	}()
	net.Detach(0)
}
