package protonet

import (
	"slices"
	"sort"
	"strconv"
	"testing"

	"minroute/internal/graph"
	"minroute/internal/lsu"
	"minroute/internal/rng"
)

// sortedScan is how Step found its candidates before Net kept them in
// ready: the key of every non-empty queue, collected from the map and
// sorted. It lives on here as the reference ready is held equal to.
func sortedScan(n *Net) [][2]graph.NodeID {
	keys := make([][2]graph.NodeID, 0, len(n.queues))
	for k, q := range n.queues {
		if len(q) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}

// recount is what Pending computed before Net counted as it went.
func recount(n *Net) int {
	total := 0
	for _, q := range n.queues {
		total += len(q)
	}
	return total
}

// scanStep is the Step that went with sortedScan: the same draws from the
// same rng over candidates it derives from queues alone. It never reads
// ready or pending; it re-derives both before the receiver runs, because
// today's Sender and FailLink assume them current.
func scanStep(n *Net) bool {
	keys := sortedScan(n)
	if len(keys) == 0 {
		return false
	}
	key := keys[n.r.Intn(len(keys))]
	q := n.queues[key]
	m := q[0]
	n.attempts++
	if n.perturb.LossProb > 0 {
		if n.headLoss[key]+1 < DefaultMaxAttempts && n.r.Float64() < n.perturb.LossProb {
			n.headLoss[key]++
			return true
		}
	}
	delete(n.headLoss, key)
	if len(q) == 1 {
		delete(n.queues, key)
	} else {
		n.queues[key] = q[1:]
	}
	n.ready, n.pending = sortedScan(n), recount(n)
	if n.OnMessage != nil {
		n.OnMessage(key[0], key[1], len(m.Entries), m.Ack)
	}
	n.nodes[key[1]].HandleLSU(m)
	n.delivered++
	if n.OnDeliver != nil {
		n.OnDeliver()
	}
	if n.perturb.DupProb > 0 && n.r.Float64() < n.perturb.DupProb {
		n.attempts++
	}
	return true
}

// delivery is one message reaching its receiver: the link and the serial
// number its sender stamped on it.
type delivery struct {
	from, to graph.NodeID
	serial   int
}

// world is one Net under a schedule, with the chatter nodes attached to it
// and everything they do drawn from its own stream, so two worlds built
// alike stay alike for as long as their deliveries arrive in the same order.
type world struct {
	g      *graph.Graph
	net    *Net
	r      *rng.Source
	serial int
	log    []delivery
	// down lists the failed duplex links, restorable in any order; dropped
	// counts the messages that were queued on them when they failed.
	down    [][2]graph.NodeID
	dropped int
}

// replies is how many messages a chatter sends per message received: 7/8
// on average, so every flood dies out.
var replies = [8]int{0, 0, 0, 0, 1, 1, 2, 3}

// chatter is a Node that talks the way a routing protocol does — a message
// to the neighbor a link event names, a few to random neighbors for each
// one received, one elsewhere when a link goes — without computing anything.
type chatter struct {
	id graph.NodeID
	w  *world
}

func (c *chatter) send(to graph.NodeID) {
	c.w.serial++
	c.w.net.Sender(c.id)(to, &lsu.Msg{From: c.id, Entries: []lsu.Entry{{Tail: graph.NodeID(c.w.serial)}}})
}

func (c *chatter) sendAny() {
	if nbrs := c.w.g.Neighbors(c.id); len(nbrs) > 0 {
		c.send(nbrs[c.w.r.Intn(len(nbrs))])
	}
}

func (c *chatter) HandleLSU(m *lsu.Msg) {
	c.w.log = append(c.w.log, delivery{m.From, c.id, int(m.Entries[0].Tail)})
	for k := replies[c.w.r.Intn(len(replies))]; k > 0; k-- {
		c.sendAny()
	}
}
func (c *chatter) LinkUp(k graph.NodeID, cost float64)         { c.send(k) }
func (c *chatter) LinkCostChange(k graph.NodeID, cost float64) { c.send(k) }
func (c *chatter) LinkDown(k graph.NodeID)                     { c.sendAny() }

// newWorld builds a connected random graph of n nodes from seed — a random
// tree plus up to n further links — and brings every link up.
func newWorld(n int, seed uint64) *world {
	r := rng.New(seed)
	g := graph.New()
	for v := 0; v < n; v++ {
		g.AddNode(strconv.Itoa(v))
		if v > 0 {
			_ = g.AddDuplex(graph.NodeID(v), graph.NodeID(r.Intn(v)), 1, 0)
		}
	}
	for extra := r.Intn(n + 1); extra > 0; extra-- {
		if a, b := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)); a != b {
			if _, dup := g.Link(a, b); !dup {
				_ = g.AddDuplex(a, b, 1, 0)
			}
		}
	}
	w := &world{g: g, net: New(g, seed), r: r.Split(1)}
	for _, id := range g.Nodes() {
		w.net.Attach(id, &chatter{id: id, w: w})
	}
	w.net.BringUpAll(func(*graph.Link) float64 { return 1 })
	return w
}

func (w *world) fail(a, b graph.NodeID) {
	w.dropped += len(w.net.queues[[2]graph.NodeID{a, b}]) + len(w.net.queues[[2]graph.NodeID{b, a}])
	w.net.FailLink(a, b)
	w.down = append(w.down, [2]graph.NodeID{a, b})
}

// The kinds of action a schedule byte selects; the three lowest all step.
const (
	actFail = 3 + iota
	actRestore
	actCost
	actPerturb
	actRestart
	numActs
)

// act applies one action other than a step. Which link or node it touches
// is arg reduced modulo what the world holds at that moment, so any byte is
// a valid argument.
func (w *world) act(op, arg byte) {
	links := w.g.Links()
	switch op % numActs {
	case actFail:
		if len(links) > 0 {
			l := links[int(arg)%len(links)]
			w.fail(l.From, l.To)
		}
	case actRestore:
		if len(w.down) > 0 {
			i := int(arg) % len(w.down)
			l := w.down[i]
			w.down = slices.Delete(w.down, i, i+1)
			w.net.RestoreLink(l[0], l[1], 1, 0, 1)
		}
	case actCost:
		if len(links) > 0 {
			l := links[int(arg)%len(links)]
			w.net.ChangeCost(l.From, l.To, float64(arg))
		}
	case actPerturb:
		w.net.SetPerturb(Perturb{LossProb: float64(arg&3) / 4, DupProb: float64(arg>>2&3) / 4})
	case actRestart:
		v := graph.NodeID(int(arg) % w.g.NumNodes())
		for _, k := range w.g.Neighbors(v) {
			w.fail(v, k)
		}
		w.net.Detach(v)
		w.net.Attach(v, &chatter{id: v, w: w})
	}
}

// scheduleStats is what a driven schedule exercised, for the test's log.
type scheduleStats struct{ actions, deliveries, dropped, maxReady int }

// driveSchedule builds two worlds from data's two header bytes (node count,
// seed), got stepped by Net.Step and want by scanStep, and applies the
// (op, arg) byte pairs that follow to both. After every action and every
// single step it requires of the first that ready equals the sorted scan of
// its queues and Pending a recount of them, and of the pair that they have
// made the same deliveries in the same order with the same counters. It
// finishes by stepping both until neither has anything left.
func driveSchedule(t testing.TB, data []byte) (st scheduleStats) {
	if len(data) < 2 {
		return st
	}
	n, seed := 2+int(data[0])%63, uint64(data[1])
	got, want := newWorld(n, seed), newWorld(n, seed)
	compared := 0
	check := func(what string) {
		t.Helper()
		if ready, scan := got.net.ready, sortedScan(got.net); !slices.Equal(ready, scan) {
			i := 0
			for i < len(ready) && i < len(scan) && ready[i] == scan[i] {
				i++
			}
			t.Fatalf("n=%d seed=%d, after %s: ready (%d keys) and the scan of queues (%d) part at index %d: %v, %v",
				n, seed, what, len(ready), len(scan), i, ready[i:min(i+2, len(ready))], scan[i:min(i+2, len(scan))])
		}
		if p, c := got.net.Pending(), recount(got.net); p != c {
			t.Fatalf("n=%d seed=%d, after %s: Pending() = %d, queues hold %d", n, seed, what, p, c)
		}
		if len(got.log) != len(want.log) || !slices.Equal(got.log[compared:], want.log[compared:]) {
			t.Fatalf("n=%d seed=%d, after %s: deliveries part after the first %d:\n got %v\nwant %v",
				n, seed, what, compared, got.log[compared:], want.log[compared:])
		}
		compared = len(got.log)
		g, w := got.net, want.net
		if g.attempts != w.attempts || g.delivered != w.delivered || g.pending != w.pending {
			t.Fatalf("n=%d seed=%d, after %s: attempts/delivered/pending %d/%d/%d, reference %d/%d/%d",
				n, seed, what, g.attempts, g.delivered, g.pending, w.attempts, w.delivered, w.pending)
		}
		st.maxReady = max(st.maxReady, len(g.ready))
	}
	stepBoth := func() bool {
		t.Helper()
		more, refMore := got.net.Step(), scanStep(want.net)
		if more != refMore {
			t.Fatalf("n=%d seed=%d: Step reports %v, the reference %v", n, seed, more, refMore)
		}
		check("a step")
		return more
	}
	check("bring-up")
	for data = data[2:]; len(data) >= 2; data = data[2:] {
		op, arg := data[0], data[1]
		st.actions++
		if op%numActs < actFail {
			for k := 1 + int(arg)%8; k > 0 && stepBoth(); k-- {
			}
			continue
		}
		got.act(op, arg)
		want.act(op, arg)
		check([]string{actFail: "FailLink", actRestore: "RestoreLink", actCost: "ChangeCost",
			actPerturb: "SetPerturb", actRestart: "Detach+Attach"}[op%numActs])
	}
	// A lost frame is retried at most DefaultMaxAttempts times and a flood
	// shrinks by an eighth per generation, so both worlds run dry.
	for stepBoth() {
	}
	st.deliveries, st.dropped = len(got.log), got.dropped
	return st
}

// TestStepMatchesSortedScan holds the maintained candidate list to the
// collect-and-sort it replaced, over random schedules on random graphs of
// 2–64 nodes: the same candidates in the same order after every action, the
// same Pending, and so — from the same seed — the same delivery sequence.
func TestStepMatchesSortedScan(t *testing.T) {
	var total scheduleStats
	for seed := uint64(0); seed < 200; seed++ {
		r := rng.New(seed)
		data := make([]byte, 2+2*(50+r.Intn(200)))
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		st := driveSchedule(t, data)
		total.actions += st.actions
		total.deliveries += st.deliveries
		total.dropped += st.dropped
		total.maxReady = max(total.maxReady, st.maxReady)
	}
	t.Logf("%d actions, %d deliveries, %d queued messages dropped by failures, up to %d candidates",
		total.actions, total.deliveries, total.dropped, total.maxReady)
	if total.deliveries == 0 || total.dropped == 0 {
		t.Fatal("the schedules delivered or dropped nothing: the comparison was vacuous")
	}
}

// FuzzStepSchedule is TestStepMatchesSortedScan's driver on fuzzer-chosen
// bytes; the seeds are one schedule per kind of action, each on 8 nodes.
func FuzzStepSchedule(f *testing.F) {
	f.Add([]byte{6, 1, 0, 7, 1, 7, 2, 7})
	f.Add([]byte{6, 2, actFail, 0, 0, 7, actFail, 5, 0, 7})
	f.Add([]byte{6, 3, actFail, 4, 0, 3, actRestore, 0, 0, 7})
	f.Add([]byte{6, 4, 0, 3, actCost, 9, 0, 7})
	f.Add([]byte{6, 5, actPerturb, 0x05, 0, 7, 0, 7, actPerturb, 0, 0, 7})
	f.Add([]byte{6, 6, 0, 3, actRestart, 2, 0, 7, actRestore, 0, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2+2*512 {
			t.Skip("longer than any schedule worth minimizing")
		}
		driveSchedule(t, data)
	})
}
