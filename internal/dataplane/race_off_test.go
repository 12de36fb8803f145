//go:build !race

package dataplane

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
