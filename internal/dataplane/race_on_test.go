//go:build race

package dataplane

// raceEnabled reports whether the race detector is compiled in. Alloc
// accounting is unreliable under it, so the allocation guard skips.
const raceEnabled = true
