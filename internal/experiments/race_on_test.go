//go:build race

package experiments

// raceEnabled reports whether the race detector is compiled in. Every
// figure at Quick takes ~12 s plain and several minutes raced, so the
// pinned-figures test skips.
const raceEnabled = true
