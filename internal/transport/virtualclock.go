package transport

import (
	"sync"

	"minroute/internal/eventq"
)

// VirtualClock is a manually advanced Clock for deterministic tests and
// virtual-time runs of the live stack: nothing fires until Advance, and
// due timers fire in virtual-time order (arming order among equal
// deadlines), so heartbeat, dead-timer and retransmission behavior can be
// tested to the exact second without real sleeping. It sits on the
// simulator's event heap: O(log n) per firing however many timers are armed.
type VirtualClock struct {
	mu  sync.Mutex
	now float64
	q   eventq.Queue
}

type virtualTimer struct {
	c *VirtualClock
	h eventq.Handle
}

// NewVirtualClock returns a clock at time zero with no timers.
func NewVirtualClock() *VirtualClock { return &VirtualClock{} }

// Now returns the current virtual time in seconds.
func (c *VirtualClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AfterFunc schedules fn at now+d; it runs inside a future Advance call.
func (c *VirtualClock) AfterFunc(d float64, fn func()) Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return virtualTimer{c: c, h: c.q.Push(c.now+d, fn)}
}

// Stop implements Timer.
func (t virtualTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if !t.h.Scheduled() {
		return false
	}
	t.c.q.Cancel(t.h)
	return true
}

// Advance moves virtual time forward by d seconds, firing due timers in
// time order. Callbacks run with the clock unlocked, so they may arm new
// timers; those fire within the same Advance if they fall inside the
// window.
func (c *VirtualClock) Advance(d float64) {
	c.mu.Lock()
	target := c.now + d
	for {
		ev := c.q.Peek()
		if ev == nil || ev.Time() > target {
			break
		}
		c.q.Pop()
		if ev.Time() > c.now {
			c.now = ev.Time()
		}
		c.mu.Unlock()
		ev.Fire()
		c.mu.Lock()
		c.q.Recycle(ev)
	}
	c.now = target
	c.mu.Unlock()
}
