//go:build !race

package pda

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
