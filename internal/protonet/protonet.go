// Package protonet is a lightweight message-passing harness for driving the
// PDA/MPDA state machines outside the packet simulator. It delivers LSU
// messages between protocol instances with the only guarantee the paper's
// link model provides — reliable per-link FIFO order — while interleaving
// deliveries across links in a seeded random order. Randomized interleaving
// explores many asynchronous schedules, which is exactly what the loop-free
// invariant (Theorem 3) must survive; the packet simulator then exercises
// the same code with realistic timing.
//
// The candidates of that choice are the non-empty link queues in ascending
// (from, to) order, the one an exhaustive enumeration would walk. The
// harness keeps that list: a step costs an O(log Q) search and a copy where
// a queue turns empty or non-empty, and nothing more otherwise.
package protonet

import (
	"cmp"
	"fmt"
	"slices"

	"minroute/internal/graph"
	"minroute/internal/lsu"
	"minroute/internal/rng"
)

// Node is a routing-protocol instance: a PDA or MPDA router, or a router.Agent.
type Node interface {
	HandleLSU(m *lsu.Msg)
	LinkUp(k graph.NodeID, cost float64)
	LinkCostChange(k graph.NodeID, cost float64)
	LinkDown(k graph.NodeID)
}

// Perturb configures perturbation of the raw channel beneath the paper's
// reliable-FIFO abstraction. A lost frame leaves the message at the head of
// its queue to be retried on a later round — the reliable protocol's
// retransmission, which the retry bound makes a bounded delay. A duplicate
// frame reaches the receiver's ARQ layer, whose sequence numbers discard it
// before the routing process runs: it costs a channel attempt, never a
// protocol event. MPDA's ACK bookkeeping, like the paper's link model,
// assumes exactly-once delivery; a duplicate above the ARQ would mint a
// spurious ACK credit and break the LFI. Per-link FIFO order always holds
// ("received correctly and in the proper sequence" is what the ARQ
// restores), so the protocol observes only bounded extra delay.
type Perturb struct {
	// LossProb is the per-attempt probability that the frame is lost and the
	// message must be retransmitted later.
	LossProb float64
	// DupProb is the per-delivery probability that the frame arrives twice;
	// the receiver's ARQ layer discards the second copy.
	DupProb float64
}

// DefaultMaxAttempts caps delivery attempts per message under Perturb (loss
// count + the final delivery). The cap bounds how long a message can be
// delayed, so perturbed runs still quiesce.
const DefaultMaxAttempts = 4

// Net connects protocol instances over a topology.
type Net struct {
	g      *graph.Graph
	nodes  map[graph.NodeID]Node
	queues map[[2]graph.NodeID][]*lsu.Msg
	// ready holds the keys of queues, ascending by (from, to): the candidates
	// of Step's seeded choice. Sender, Step and FailLink keep it where a queue
	// turns non-empty or empty.
	ready [][2]graph.NodeID
	r     *rng.Source
	// OnDeliver, when set, runs after every single message delivery; tests
	// install invariant checks (e.g. instantaneous loop-freedom) here.
	OnDeliver func()
	delivered int
	attempts  int
	pending   int
	perturb   Perturb
	// headLoss counts how many times the head message of each link queue has
	// been lost, enforcing DefaultMaxAttempts.
	headLoss map[[2]graph.NodeID]int
}

// New returns a harness over g with a seeded interleaving order.
func New(g *graph.Graph, seed uint64) *Net {
	return &Net{
		g:        g,
		nodes:    make(map[graph.NodeID]Node),
		queues:   make(map[[2]graph.NodeID][]*lsu.Msg),
		r:        rng.New(seed),
		headLoss: make(map[[2]graph.NodeID]int),
	}
}

// SetPerturb installs (or, with the zero value, removes) control-plane
// perturbation. Takes effect from the next delivery attempt.
func (n *Net) SetPerturb(p Perturb) { n.perturb = p }

// Attach registers the protocol instance for router id.
func (n *Net) Attach(id graph.NodeID, node Node) {
	if _, dup := n.nodes[id]; dup {
		panic(fmt.Sprintf("protonet: node %d attached twice", id))
	}
	n.nodes[id] = node
}

// Detach removes the protocol instance for router id, so that a fresh
// instance can be Attached in its place — the crash/restart lifecycle. The
// caller is responsible for failing the node's links first; detaching a node
// that still has live links panics, because its queues would dangle.
func (n *Net) Detach(id graph.NodeID) {
	if _, ok := n.nodes[id]; !ok {
		panic(fmt.Sprintf("protonet: Detach of unattached node %d", id))
	}
	if len(n.g.Neighbors(id)) > 0 {
		panic(fmt.Sprintf("protonet: Detach of node %d with live links", id))
	}
	delete(n.nodes, id)
}

// Sender returns the Sender closure for router from: it enqueues messages
// on the from→to link.
func (n *Net) Sender(from graph.NodeID) func(to graph.NodeID, m *lsu.Msg) {
	return func(to graph.NodeID, m *lsu.Msg) {
		if _, ok := n.g.Link(from, to); !ok {
			return // link vanished under the protocol; message is lost
		}
		key := [2]graph.NodeID{from, to}
		q := n.queues[key]
		if len(q) == 0 {
			i, _ := slices.BinarySearchFunc(n.ready, key, compareKeys)
			n.ready = slices.Insert(n.ready, i, key)
		}
		n.queues[key] = append(q, m)
		n.pending++
	}
}

// compareKeys orders link keys by from, then to: the order of ready.
func compareKeys(a, b [2]graph.NodeID) int {
	if c := cmp.Compare(a[0], b[0]); c != 0 {
		return c
	}
	return cmp.Compare(a[1], b[1])
}

// BringUpAll announces every adjacent link to both endpoints with the cost
// given by costOf, in deterministic node order; delivery interleaving stays
// random.
func (n *Net) BringUpAll(costOf func(l *graph.Link) float64) {
	for _, l := range n.g.Links() {
		n.nodes[l.From].LinkUp(l.To, costOf(l))
	}
}

// Step delivers one message from a randomly chosen non-empty link queue,
// respecting per-link FIFO order. It reports false when all queues are
// empty.
func (n *Net) Step() bool {
	if len(n.ready) == 0 {
		return false
	}
	at := n.r.Intn(len(n.ready))
	key := n.ready[at]
	q := n.queues[key]
	m := q[0]
	n.attempts++
	if n.perturb.LossProb > 0 {
		if n.headLoss[key]+1 < DefaultMaxAttempts && n.r.Float64() < n.perturb.LossProb {
			// Frame lost. The message stays at the head of its queue and will
			// be retried on a later round — the ARQ retransmission, seen from
			// above as a bounded extra delay. FIFO order is untouched.
			n.headLoss[key]++
			return true
		}
	}
	delete(n.headLoss, key)
	if len(q) == 1 {
		delete(n.queues, key)
		n.ready = slices.Delete(n.ready, at, at+1)
	} else {
		q[0] = nil // the backing array outlives the delivery; the message need not
		n.queues[key] = q[1:]
	}
	n.pending--
	n.nodes[key[1]].HandleLSU(m)
	n.delivered++
	if n.OnDeliver != nil {
		n.OnDeliver()
	}
	if n.perturb.DupProb > 0 && n.r.Float64() < n.perturb.DupProb {
		// Duplicate frame: the copy reaches the receiver's ARQ layer, which
		// recognizes the repeated sequence number and discards it. The channel
		// spent an attempt but the protocol never sees the copy.
		n.attempts++
	}
	return true
}

// Run delivers messages until quiescence and returns how many it delivered.
// It panics after maxDeliveries attempts, retransmissions included.
func (n *Net) Run(maxDeliveries int) int {
	startAttempts := n.attempts
	startDelivered := n.delivered
	for n.Step() {
		if n.attempts-startAttempts > maxDeliveries {
			panic("protonet: protocol did not quiesce within delivery budget")
		}
	}
	return n.delivered - startDelivered
}

// Delivered returns the total number of messages delivered so far.
func (n *Net) Delivered() int { return n.delivered }

// Attempts returns the total number of delivery attempts, including frames
// lost by the perturbation layer. Attempts == Delivered when unperturbed.
func (n *Net) Attempts() int { return n.attempts }

// Pending returns the number of undelivered messages.
func (n *Net) Pending() int { return n.pending }

// ChangeCost updates the cost of directed link a→b and notifies a.
func (n *Net) ChangeCost(a, b graph.NodeID, cost float64) {
	if _, ok := n.g.Link(a, b); !ok {
		panic("protonet: ChangeCost on missing link")
	}
	n.nodes[a].LinkCostChange(b, cost)
}

// FailLink removes the duplex link a↔b from the topology, drops any queued
// messages on it, and notifies both endpoints.
func (n *Net) FailLink(a, b graph.NodeID) {
	n.g.RemoveLink(a, b)
	n.g.RemoveLink(b, a)
	for _, key := range [2][2]graph.NodeID{{a, b}, {b, a}} {
		if q := n.queues[key]; len(q) > 0 {
			i, _ := slices.BinarySearchFunc(n.ready, key, compareKeys)
			n.ready = slices.Delete(n.ready, i, i+1)
			n.pending -= len(q)
			delete(n.queues, key)
		}
		delete(n.headLoss, key)
	}
	n.nodes[a].LinkDown(b)
	n.nodes[b].LinkDown(a)
}

// RestoreLink re-adds the duplex link a↔b and notifies both endpoints.
func (n *Net) RestoreLink(a, b graph.NodeID, capacity, prop, cost float64) {
	if err := n.g.AddDuplex(a, b, capacity, prop); err != nil {
		panic("protonet: RestoreLink: " + err.Error())
	}
	n.nodes[a].LinkUp(b, cost)
	n.nodes[b].LinkUp(a, cost)
}
