package node

import (
	"time"

	"minroute/internal/transport"
)

// WallClock implements transport.Clock on the process clock for live
// runs. This file is the module's single sanctioned wall-time reader: the
// nowall lint check bans time.Now, time.Since and time.Until everywhere
// else, so every simulator and test path stays on virtual time and the
// live/sim boundary is exactly one file wide.
type WallClock struct {
	start time.Time
}

// NewWallClock starts a wall clock whose Now reads zero at creation.
func NewWallClock() *WallClock {
	return &WallClock{start: time.Now()}
}

// Now returns seconds elapsed since the clock was created, using the
// monotonic reading embedded in the start time.
func (w *WallClock) Now() float64 {
	return time.Since(w.start).Seconds()
}

// AfterFunc schedules fn on a real timer d seconds from now.
func (w *WallClock) AfterFunc(d float64, fn func()) transport.Timer {
	return time.AfterFunc(time.Duration(d*float64(time.Second)), fn)
}
