//go:build !race

package mpda

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
