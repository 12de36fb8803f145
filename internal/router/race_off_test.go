//go:build !race

package router

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
