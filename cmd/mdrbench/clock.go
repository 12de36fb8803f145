package main

import (
	"syscall"
	"time"
)

// epoch anchors the harness clock; every timing in the benchmark is a
// difference of two now() readings taken from it.
var epoch = wallNow()

// wallNow is the benchmark's single wall-clock reader.
func wallNow() time.Time {
	return time.Now() //lint:nowall-ok the benchmark measures host time of finished calls; no reading enters a simulation or a protocol decision
}

// now returns the monotonic host time since process start.
func now() time.Duration { return wallNow().Sub(epoch) }

// secondsSince converts a now() reading into elapsed seconds.
func secondsSince(start time.Duration) float64 { return (now() - start).Seconds() }

// timeIt runs fn and returns its host time in seconds.
func timeIt(fn func()) float64 {
	start := now()
	fn()
	return secondsSince(start)
}

// peakRSSMiB returns the process's maximum resident set size. Linux
// reports ru_maxrss in KiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
