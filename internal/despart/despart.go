// Package despart executes one discrete-event simulation across several
// engine shards with conservative (null-message-free) time windows.
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
// equal-time events by origin priority (see eventq), mailbox drains happen
// in ascending global link order at window start, and every barrier-side
// action (faults, oracles, measurement boundaries) runs single-threaded
// with all shard clocks equal. A run at P shards replays the exact event
// schedule of the serial run, which is what makes the telemetry artifacts
// byte-identical at -shards 1 vs 2 vs 8 (the determinism matrix in
// internal/experiments pins that).
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
	// inbound[s] lists the cross-shard ports delivering INTO shard s, in
	// ascending global link order; shard s drains them at window start.
	inbound [][]*des.Port
	// xports lists every cross-shard port once, for the barrier-side
	// mailbox flip.
	xports []*des.Port

	// OnBarrier, when set, runs single-threaded at every window boundary
	// (and after the final inclusive step) with all shard clocks equal to t.
	// Chaos oracles and fault injection hook here.
	OnBarrier func(t float64)
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

// AddInbound registers a cross-shard port delivering into shard s. Ports
// must be registered in ascending global link order (the drain order is
// part of the deterministic schedule). The port's propagation delay must
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
// clocks equal t and OnBarrier has run at every boundary.
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
		if c.OnBarrier != nil {
			c.OnBarrier(boundary)
		}
	}
	c.flipMail()
	c.phase(workers, t, true)
	if c.OnBarrier != nil {
		c.OnBarrier(t)
	}
}

// flipMail publishes every cross-shard mailbox to its receiver. Runs
// single-threaded between phases — the only moment both mailbox halves of
// a port may be touched by one goroutine.
func (c *Coordinator) flipMail() {
	for _, p := range c.xports {
		p.FlipMail()
	}
}
