// Package leaktest fails a test when goroutines started during it are
// still running at its end.
//
// The live stack is full of owned goroutines — the lane readers of ARQ
// conns and node sessions, simpool workers — and every one of them
// has a documented stop path (DESIGN.md §13). A test that exits while one
// of those goroutines is still running has found an ownership bug: a
// Close that doesn't join, a timer that re-arms after teardown, a session
// blocked on a conn nobody will close. The static goroutine-lifecycle
// check proves a stop path *exists*; this package checks at runtime that
// the test actually *took* it.
//
// Usage, first line of a test (or subtest) body:
//
//	leaktest.Check(t)
//
// Check snapshots the live goroutines immediately and registers a Cleanup
// that re-snapshots after the test. Goroutines present at the end but not
// the start fail the test. Teardown is asynchronous all over the stack
// (conn.Close returns before the read loop observes the error), so the
// cleanup polls with a grace period rather than judging the first
// snapshot: a goroutine on its way out is not a leak, a goroutine still
// there after a second of retries is.
package leaktest

import (
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// maxRetries × retryDelay is the grace period a winding-down goroutine
// has to exit before it is declared leaked.
const (
	maxRetries = 100
	retryDelay = 10 * time.Millisecond
)

// Check arms leak detection for the current test. Call it before starting
// any goroutines the test owns.
func Check(t testing.TB) {
	t.Helper()
	before := snapshot()
	t.Cleanup(func() {
		var leaked []string
		for i := 0; i < maxRetries; i++ {
			leaked = leakedSince(before)
			if len(leaked) == 0 {
				return
			}
			time.Sleep(retryDelay)
		}
		t.Errorf("leaktest: %d goroutine(s) leaked by this test:\n\n%s",
			len(leaked), strings.Join(leaked, "\n\n"))
	})
}

// snapshot returns the live goroutines keyed by goroutine ID. The ID is
// the stable identity across snapshots: stacks move (a goroutine parked in
// a different select arm is still the same leak) and IDs are never reused
// within a process run.
func snapshot() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for _, g := range strings.Split(string(buf), "\n\n") {
		if id := goroutineID(g); id != "" {
			out[id] = strings.TrimSpace(g)
		}
	}
	return out
}

// goroutineID extracts N from a "goroutine N [state]:" header.
func goroutineID(stack string) string {
	rest, ok := strings.CutPrefix(stack, "goroutine ")
	if !ok {
		return ""
	}
	id, _, ok := strings.Cut(rest, " ")
	if !ok {
		return ""
	}
	return id
}

// leakedSince diffs the current goroutines against the starting snapshot,
// dropping runtime- and harness-owned goroutines the test cannot be
// blamed for.
func leakedSince(before map[string]string) []string {
	after := snapshot()
	ids := make([]string, 0, len(after))
	for id := range after { //lint:maporder-ok ids are sorted below; the report order is deterministic
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var leaked []string
	for _, id := range ids {
		if _, existed := before[id]; existed {
			continue
		}
		if stack := after[id]; !ignorable(stack) {
			leaked = append(leaked, stack)
		}
	}
	return leaked
}

// ignoredStackFragments mark goroutines owned by the runtime or the
// testing harness rather than the test body: the test driver itself,
// parent tests parked in t.Run, signal plumbing, and expiring
// runtime-timer callbacks that have fired but not yet returned.
var ignoredStackFragments = []string{
	"testing.Main(",
	"testing.tRunner(",
	"testing.(*T).Run(",
	"testing.(*M).",
	"testing.runTests(",
	"runtime.goexit",
	"runtime.MHeap_Scavenger",
	"runtime.ensureSigM",
	"os/signal.signal_recv",
	"os/signal.loop",
	"runtime/trace.Start",
	"time.goFunc",
}

func ignorable(stack string) bool {
	for _, frag := range ignoredStackFragments {
		if strings.Contains(stack, frag) {
			return true
		}
	}
	return false
}
