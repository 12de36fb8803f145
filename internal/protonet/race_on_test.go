//go:build race

package protonet

// raceEnabled reports whether the race detector is compiled in. Alloc-count
// guards skip under it: the detector's shadow bookkeeping allocates.
const raceEnabled = true
