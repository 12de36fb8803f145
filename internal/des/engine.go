// Package des is the discrete-event network simulator substrate: a
// single-threaded event engine, the packet model, and the link transmission
// pipeline (output queue + transmitter + propagation). The paper evaluates
// its framework on a packet simulator; this package is that simulator,
// built from scratch on the eventq scheduler.
//
// Design notes:
//   - Single-threaded and fully deterministic for a given seed: every run of
//     an experiment is exactly reproducible.
//   - Data packets have exponentially distributed sizes so a FIFO link
//     approximates the M/M/1 behaviour the paper's cost function assumes.
//   - Routing-protocol messages travel over the same links but in a strict-
//     priority, lossless control band, implementing the paper's assumption
//     that "an underlying protocol ensures that messages transmitted over an
//     operational link are received correctly and in the proper sequence".
package des

import (
	"fmt"

	"minroute/internal/eventq"
	"minroute/internal/rng"
)

// Origin priorities order equal-time events by the model entity that
// scheduled them (see eventq). The ranges are disjoint by construction:
// routers, then link transmitters and deliverers, then traffic sources, then
// the harness (setup code, fault injectors, oracles), which always sorts
// after every model event at the same instant. The scheme is global and
// size-independent so serial and sharded runs assign identical priorities.
const (
	// priRouterBase..: origin of router id is 1+id (id < 2^16).
	priRouterBase uint64 = 1
	// priLinkBase..: directed link l owns two origins — transmitter-side
	// completions (2l) and receiver-side deliveries (2l+1), l < 2^15.
	priLinkBase uint64 = 1 << 17
	// priSourceBase..: traffic source x (flow index).
	priSourceBase uint64 = 1 << 18
	// PriHarness is the ambient origin outside any model event: setup code,
	// chaos fault appliers, and measurement boundaries. It is zero — the
	// lowest rank — so a harness action (and its telemetry marker, e.g. a
	// fault_start) orders BEFORE the model reactions it triggers at the same
	// instant, and so raw eventq.Push (pri 0) means harness by construction.
	PriHarness uint64 = 0
)

// PriRouter returns the origin priority of router id.
func PriRouter(id uint64) uint64 { return priRouterBase + id }

// PriLinkTx returns the origin priority of directed link l's transmitter.
func PriLinkTx(l uint64) uint64 { return priLinkBase + 2*l }

// PriLinkDeliver returns the origin priority of directed link l's
// propagation/delivery side.
func PriLinkDeliver(l uint64) uint64 { return priLinkBase + 2*l + 1 }

// PriSource returns the origin priority of traffic source x.
func PriSource(x uint64) uint64 { return priSourceBase + x }

// Engine advances simulated time and dispatches events. Create with
// NewEngine; not safe for concurrent use. The engine owns the event and
// packet free lists: both are safe precisely because one engine is always
// driven by one goroutine (concurrency lives across simulations and across
// shards of one simulation, never within one engine — see DESIGN.md
// "Concurrency model").
type Engine struct {
	q       eventq.Queue
	now     float64
	rng     *rng.Source
	packets PacketPool
	fired   int64
	// curPri is the ambient origin priority: the priority of the event being
	// executed, PriHarness outside any event. Schedule/After stamp it onto
	// new events, so causal chains inherit their origin automatically.
	curPri uint64

	// OnEvent, when set, runs after every fired event with the clock at the
	// event's time — the oracle tap point: invariant checkers (loop-freedom,
	// conservation) hook here to audit the network at event granularity.
	// The hook must not schedule events or advance the engine.
	OnEvent func()
}

// NewEngine returns an engine with its clock at zero and a root RNG seeded
// with seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: rng.New(seed), curPri: PriHarness}
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// RNG returns the engine's root random source. Components should derive
// their own streams via Split to stay decorrelated.
func (e *Engine) RNG() *rng.Source { return e.rng }

// Origin returns the ambient origin priority: the priority of the event
// currently executing, or PriHarness outside event context. Telemetry uses
// it to stamp events with a schedule-independent emitter rank.
func (e *Engine) Origin() uint64 { return e.curPri }

// WithOrigin runs fn with the ambient origin priority set to pri, restoring
// the previous origin afterwards. Components use it when arming their own
// timers from harness context (e.g. a router restart) so the rescheduled
// chain keeps the component's origin rather than the harness's.
func (e *Engine) WithOrigin(pri uint64, fn func()) {
	prev := e.curPri
	e.curPri = pri
	fn()
	e.curPri = prev
}

// Schedule runs fn at absolute time at, stamping the ambient origin
// priority. Scheduling in the past panics: it is always a simulation bug.
func (e *Engine) Schedule(at float64, fn func()) eventq.Handle {
	return e.SchedulePri(at, e.curPri, fn)
}

// SchedulePri runs fn at absolute time at with an explicit origin priority.
func (e *Engine) SchedulePri(at float64, pri uint64, fn func()) eventq.Handle {
	if at < e.now {
		panic(fmt.Sprintf("des: scheduling into the past (%.9f < %.9f)", at, e.now))
	}
	return e.q.PushPri(at, pri, fn)
}

// After runs fn d seconds from now, stamping the ambient origin priority.
func (e *Engine) After(d float64, fn func()) eventq.Handle {
	return e.AfterPri(d, e.curPri, fn)
}

// AfterPri runs fn d seconds from now with an explicit origin priority.
func (e *Engine) AfterPri(d float64, pri uint64, fn func()) eventq.Handle {
	if d < 0 {
		panic("des: negative delay")
	}
	return e.q.PushPri(e.now+d, pri, fn)
}

// Cancel revokes a pending event.
func (e *Engine) Cancel(h eventq.Handle) { e.q.Cancel(h) }

// Step executes the next event, advancing the clock. It reports false when
// no events remain. Fired event records are recycled into the queue's free
// list, so the schedule-fire cycle is allocation-free at steady state.
func (e *Engine) Step() bool {
	ev := e.q.Pop()
	if ev == nil {
		return false
	}
	e.now = ev.Time()
	prev := e.curPri
	e.curPri = ev.Pri()
	ev.Fire()
	e.curPri = prev
	e.q.Recycle(ev)
	e.fired++
	if e.OnEvent != nil {
		e.OnEvent()
	}
	return true
}

// EventsFired reports how many events have fired since the engine was
// created. Oracles report it alongside violations to locate them in a run.
func (e *Engine) EventsFired() int64 { return e.fired }

// NewPacket takes a packet from the engine's free list (or allocates one).
// The caller must overwrite every field; recycled packets keep stale data.
func (e *Engine) NewPacket() *Packet { return e.packets.Get() }

// FreePacket returns a packet whose lifetime has ended to the free list.
// Callers must not retain the pointer afterwards. Passing packets that were
// not obtained from NewPacket is allowed (they join the pool).
func (e *Engine) FreePacket(p *Packet) { e.packets.Put(p) }

// Run executes events until the clock would pass until, leaving later
// events pending and the clock at until.
func (e *Engine) Run(until float64) {
	for {
		ev := e.q.Peek()
		if ev == nil || ev.Time() > until {
			break
		}
		e.Step()
	}
	if until > e.now {
		e.now = until
	}
}

// RunBelow executes events strictly before t, leaving events at or after t
// pending, and advances the clock to t. It is the shard window primitive:
// conservative synchronization guarantees no event before the window
// boundary can still arrive, so a shard may safely commit everything
// strictly inside the window and park its clock on the boundary. Only
// internal/despart calls it, and goes with it (ROADMAP item 20).
func (e *Engine) RunBelow(t float64) {
	for {
		ev := e.q.Peek()
		if ev == nil || ev.Time() >= t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunAll executes every pending event. It panics after maxEvents events as
// a runaway guard (protocols that never quiesce are bugs).
func (e *Engine) RunAll(maxEvents int) {
	for i := 0; e.Step(); i++ {
		if i >= maxEvents {
			panic("des: RunAll exceeded event budget; protocol not quiescing")
		}
	}
}

// Pending reports the number of scheduled events.
func (e *Engine) Pending() int { return e.q.Len() }
