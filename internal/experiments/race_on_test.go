//go:build race

package experiments

// raceEnabled reports whether the race detector is compiled in. Every
// figure at Quick takes ~8 s plain and several minutes raced, so the pin
// and the shape tests skip.
const raceEnabled = true
