// Package eventq implements the discrete-event scheduler core: a binary-heap
// priority queue of timestamped events ordered by (time, origin priority,
// insertion sequence). Equal-time events fire grouped by origin — the model
// entity (router, link, traffic source) whose execution scheduled them — and
// in FIFO order within one origin. Stability within an origin matters for
// protocol correctness: MPDA assumes messages on a link are delivered in the
// order sent. The origin rank makes the equal-time order a function of the
// model alone, not of global push order, which is what lets a sharded run
// (internal/despart) replay the exact schedule of a serial run: each origin's
// pushes happen in that origin's own deterministic execution order on
// whichever shard owns it.
//
// The queue owns a free list of Event records: the simulator pushes and pops
// millions of events per run, and recycling them keeps the hot path
// allocation-free at steady state. Recycling is safe because the engine is
// single-threaded; stale Handles are defused by a per-event generation
// counter, so holding a handle past its event's lifetime is always harmless.
package eventq

// Event is a callback scheduled at an absolute simulation time. Events are
// owned and recycled by their Queue; external code interacts with them
// through Handles and the *Event returned by Pop (valid until Recycle).
type Event struct {
	time float64
	pri  uint64
	seq  uint64
	fn   func()
	// index into the heap, -1 once popped or canceled.
	index int
	// gen increments every time the record is recycled; Handles carry the
	// generation they were issued for, which makes stale handles inert.
	gen uint64
}

// Time returns the absolute time the event fires at.
func (e *Event) Time() float64 { return e.time }

// Pri returns the event's origin priority (see PushPri).
func (e *Event) Pri() uint64 { return e.pri }

// Fire invokes the event's callback.
func (e *Event) Fire() { e.fn() }

// Handle refers to one scheduled event. It is a small value type (copying is
// cheap and allocation-free) and stays valid forever: once the event fires,
// is canceled, or its record is recycled for a new event, the handle simply
// reports not-scheduled and Cancel through it becomes a no-op.
type Handle struct {
	ev  *Event
	gen uint64
}

// Scheduled reports whether the handle's event is still pending.
func (h Handle) Scheduled() bool {
	return h.ev != nil && h.ev.gen == h.gen && h.ev.index >= 0 && h.ev.fn != nil
}

// Queue is a min-heap of events ordered by (time, origin priority,
// insertion sequence). The zero value is ready for use. Queue is not safe
// for concurrent use: each simulation shard is single-threaded by design,
// which keeps runs reproducible.
type Queue struct {
	heap []*Event
	seq  uint64
	free []*Event
}

// Len reports the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// Push schedules fn at absolute time t with origin priority zero. It panics
// on a nil fn (always a programming error).
func (q *Queue) Push(t float64, fn func()) Handle { return q.PushPri(t, 0, fn) }

// PushPri schedules fn at absolute time t with the given origin priority and
// returns a handle that can cancel it. Among equal-time events, lower
// priorities fire first; equal (time, pri) events fire in push order.
func (q *Queue) PushPri(t float64, pri uint64, fn func()) Handle {
	if fn == nil {
		panic("eventq: Push with nil fn")
	}
	var e *Event
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		e.time, e.pri, e.seq, e.fn, e.index = t, pri, q.seq, fn, len(q.heap)
	} else {
		e = &Event{time: t, pri: pri, seq: q.seq, fn: fn, index: len(q.heap)}
	}
	q.seq++
	q.heap = append(q.heap, e)
	q.up(e.index)
	return Handle{ev: e, gen: e.gen}
}

// removeTop detaches and returns the root of the heap, restoring the heap
// property. It is the single heap-removal primitive shared by Pop and Peek.
func (q *Queue) removeTop() *Event {
	e := q.heap[0]
	last := len(q.heap) - 1
	q.swap(0, last)
	q.heap[last] = nil
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
	e.index = -1
	return e
}

// Pop removes and returns the earliest live event, lazily discarding
// canceled ones. It returns nil when empty. The returned event is valid
// until it is recycled (the engine recycles it after Fire).
func (q *Queue) Pop() *Event {
	for len(q.heap) > 0 {
		e := q.removeTop()
		if e.fn == nil { // canceled: reclaim the record immediately
			q.Recycle(e)
			continue
		}
		return e
	}
	return nil
}

// Peek returns the earliest pending event without removing it, draining any
// canceled events off the top through the same removal path Pop uses.
func (q *Queue) Peek() *Event {
	for len(q.heap) > 0 && q.heap[0].fn == nil {
		q.Recycle(q.removeTop())
	}
	if len(q.heap) == 0 {
		return nil
	}
	return q.heap[0]
}

// Cancel prevents a pending event from firing. Canceling an already-fired,
// already-canceled, or recycled event is a no-op. Cancellation is O(1); the
// slot is reclaimed lazily on Pop/Peek.
func (q *Queue) Cancel(h Handle) {
	if h.ev == nil || h.ev.gen != h.gen {
		return
	}
	h.ev.fn = nil
}

// Recycle returns a popped event record to the free list. Only events
// obtained from Pop (after firing) may be recycled; recycling bumps the
// generation so outstanding Handles to the old lifetime go inert.
func (q *Queue) Recycle(e *Event) {
	if e == nil || e.index >= 0 {
		return
	}
	e.gen++
	e.fn = nil
	q.free = append(q.free, e)
}

func (q *Queue) less(i, j int) bool {
	a, b := q.heap[i], q.heap[j]
	//lint:floateq-ok heap comparators need a strict weak order; tolerant equality is not transitive
	if a.time != b.time {
		return a.time < b.time
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

func (q *Queue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.heap[i].index = i
	q.heap[j].index = j
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		min := left
		if right := left + 1; right < n && q.less(right, left) {
			min = right
		}
		if !q.less(min, i) {
			return
		}
		q.swap(i, min)
		i = min
	}
}
