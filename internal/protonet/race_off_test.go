//go:build !race

package protonet

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
