//go:build race

package telemetry

// raceEnabled reports whether the race detector is compiled in. Alloc
// accounting is unreliable under it, so the allocation guard skips.
const raceEnabled = true
