//go:build !race

package telemetry

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
