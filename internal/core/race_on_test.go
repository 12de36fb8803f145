//go:build race

package core

// raceEnabled reports whether the race detector is compiled in. Alloc
// accounting is unreliable under it, so the pool test skips.
const raceEnabled = true
