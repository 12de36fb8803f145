// Package despart executes one discrete-event simulation across several
// engine shards with conservative (null-message-free) time windows.
//
// It survives only for cmd/mdrbench's des-sf160 workload, whose
// despart.identical and despart.speedup_s2 rows build a 2-shard network
// through core.Options.Shards. Two shards ran at 0.6–1.1× of one on a
// 2-core host, so every other harness runs one serial engine per
// simulation, and simpool is their only concurrency; the package goes when
// the benchmark drops those rows (ROADMAP items 2e and 20).
//
// The router set is partitioned contiguously into P shards, each owning a
// private des.Engine, event queue, RNG, and telemetry tracer. Simulated
// time advances in lockstep windows of width Δ = the minimum propagation
// delay of any cross-shard link (the model guarantees every link's delay is
// positive, so Δ > 0). Within a window [W, W+Δ) the shards run completely
// independently: conservative lookahead says no event a peer shard fires in
// this window can affect me before W+Δ, because the earliest cross-shard
// influence travels over a link with propagation delay ≥ Δ. Cross-shard
// packets are therefore parked in per-port mailboxes (des.Port.FlipMail /
// DrainInbox) and carried across the barrier between windows instead of
// flowing through a shared event queue.
//
// Determinism is absolute, not statistical: the event order each shard
// executes is a pure function of the model because the event queue orders
// equal-time events by origin priority (see eventq). Each port's deliveries
// carry its own priority, so the order a shard drains its mailboxes in is
// immaterial. A run at P shards replays the exact event schedule of the
// serial run, so its core.Report equals the serial one
// (core.TestShardedReportMatchesSerial pins that).
//
// Worker goroutines are drawn from the process-wide simpool budget with
// TryAcquire: a simulation nested under the experiment pool only uses spare
// capacity, degrading to inline sequential shard execution (still correct,
// still deterministic) when the pool is saturated — workers × shards can
// never oversubscribe the budget.
package despart

import (
	"fmt"
	"sync"

	"minroute/internal/des"
	"minroute/internal/simpool"
)

// Coordinator drives the shards of one simulation through conservative
// time windows. Build one with New, register the cross-shard ports, then
// drive it with RunUntil; it is not safe for concurrent use (one
// simulation, one driver goroutine).
type Coordinator struct {
	engines []*des.Engine
	window  float64
	// inbound[s] lists the cross-shard ports delivering INTO shard s; shard
	// s drains them at window start, in any order.
	inbound [][]*des.Port
	// xports lists every cross-shard port once, for the barrier-side
	// mailbox flip.
	xports []*des.Port
}

// New builds a coordinator over the given shard engines with window width
// Δ (seconds). Δ must be positive and no larger than the propagation delay
// of any cross-shard link the caller registers.
func New(engines []*des.Engine, window float64) *Coordinator {
	if len(engines) == 0 {
		panic("despart: no engines")
	}
	if window <= 0 {
		panic(fmt.Sprintf("despart: window must be positive, got %g", window))
	}
	return &Coordinator{
		engines: engines,
		window:  window,
		inbound: make([][]*des.Port, len(engines)),
	}
}

// AddInbound registers a cross-shard port delivering into shard s, in any
// order: origin priorities, not the drain order, order equal-time
// deliveries across ports. The port's propagation delay must
// cover the window — that inequality is the whole correctness argument, so
// a violation panics at wiring time rather than corrupting a run.
func (c *Coordinator) AddInbound(s int, p *des.Port) {
	if p.Prop < c.window {
		panic(fmt.Sprintf("despart: link %d->%d prop %g below window %g breaks lookahead",
			p.From, p.To, p.Prop, c.window))
	}
	c.inbound[s] = append(c.inbound[s], p)
	c.xports = append(c.xports, p)
}

// runShard advances one shard through its window: drain the inbound
// mailboxes published at the barrier, then run events strictly below the
// boundary (or inclusively for the final step).
func (c *Coordinator) runShard(s int, boundary float64, inclusive bool) {
	for _, p := range c.inbound[s] {
		p.DrainInbox()
	}
	if inclusive {
		c.engines[s].Run(boundary)
	} else {
		c.engines[s].RunBelow(boundary)
	}
}

// phase runs one window's shard work, on worker goroutines when the
// simpool budget has spare slots and inline otherwise. Shard s is handled
// by worker s%workers, so the assignment is deterministic (the work each
// shard does never depends on which goroutine ran it — this only balances
// load).
func (c *Coordinator) phase(workers int, boundary float64, inclusive bool) {
	if workers <= 1 {
		for s := range c.engines {
			c.runShard(s, boundary, inclusive)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := w; s < len(c.engines); s += workers {
				c.runShard(s, boundary, inclusive)
			}
		}()
	}
	for s := 0; s < len(c.engines); s += workers {
		c.runShard(s, boundary, inclusive)
	}
	wg.Wait()
}

// RunUntil advances every shard to time t (inclusive, like des.Engine.Run):
// whole windows of width Δ with barriers in between, then a final
// inclusive step that fires events at exactly t. On return all shard
// clocks equal t.
func (c *Coordinator) RunUntil(t float64) {
	tok := simpool.TryAcquire(len(c.engines) - 1)
	defer tok.Release()
	workers := 1 + tok.Held()
	if workers > len(c.engines) {
		workers = len(c.engines)
	}
	for {
		now := c.engines[0].Now()
		if now >= t {
			break
		}
		boundary := now + c.window
		if boundary >= t {
			break
		}
		c.flipMail()
		c.phase(workers, boundary, false)
	}
	c.flipMail()
	c.phase(workers, t, true)
}

// flipMail publishes every cross-shard mailbox to its receiver. Runs
// single-threaded between phases — the only moment both mailbox halves of
// a port may be touched by one goroutine.
func (c *Coordinator) flipMail() {
	for _, p := range c.xports {
		p.FlipMail()
	}
}
