// Package fixture exercises the nowall analyzer: direct wall-clock reads
// (time.Now, time.Since, time.Until) are flagged; timers, sleeps, and
// duration values are not.
package fixture

import "time"

func stamp() time.Time {
	return time.Now() // want `direct wall-clock read`
}

func elapsed(since time.Time) time.Duration {
	return time.Since(since) // want `direct wall-clock read`
}

func remaining(deadline time.Time) time.Duration {
	return time.Until(deadline) // want `direct wall-clock read`
}

func pause() {
	time.Sleep(time.Millisecond) // waiting is fine; reading the clock is not
}

func arm(fn func()) *time.Timer {
	return time.AfterFunc(time.Second, fn)
}

func window() time.Duration {
	return 3 * time.Second
}

func sanctioned() time.Time {
	//lint:nowall-ok fixture: pretend this is the wall-clock adapter
	return time.Now()
}
