package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"sort"
)

// workload is one named set of inputs. rep generates the inputs from the
// seed, runs the program on them once and checks its outputs; the runner
// below decides how often rep is called and folds the repetitions into
// metrics. rep must be a pure function of (seed, quick) as far as the
// generated inputs and every exact output go.
type workload struct {
	name string
	why  string
	// offline workloads run the program single-threaded on virtual time and
	// get a ledger; the live ones measure wall-clock behaviour instead.
	offline bool
	// reps is how many repetitions a ten-second run makes: what fits on a
	// two-core host. A count, not a deadline, so that every run of a workload
	// does the same work and a host a little faster or slower cannot move a
	// run between "one cold repetition" and "one cold, one warm".
	reps int
	rep  func(c *runCtx, rec *recorder) repOut
}

// repOut is what one repetition measured.
type repOut struct {
	// setupS is generator + build/attach/boot work before the timed body;
	// wallS the host time of the body itself.
	setupS, wallS float64
	// events is the substrate's unit of work completed (DES events, LSU
	// deliveries, packets delivered) and eventsS the host seconds it took.
	events, eventsS float64
	// delayMs and delivery are the workload's delay and delivered/offered
	// outputs; exact on the simulated substrates.
	delayMs, delivery float64
	// hash digests every exact output; equal seeds must give equal hashes.
	hash string
	// layer holds per-layer metrics this repetition can state by name:
	// counts and demoted end-to-end numbers always, span-derived ones only
	// when a recorder was passed.
	layer map[string]float64
	// counts feed the ledger.
	counts ledgerCounts
}

// runCtx carries one run's parameters and collects its operation counts.
type runCtx struct {
	seed    uint64
	seconds float64
	quick   bool
	trace   bool

	attempted, failed int64
	failures          []string
}

// op records n attempted operations.
func (c *runCtx) op(n int64) { c.attempted += n }

// failf records one failed operation with its reason.
func (c *runCtx) failf(format string, args ...any) { c.failN(1, format, args...) }

// failN records n failed operations that share one reason.
func (c *runCtx) failN(n int64, format string, args ...any) {
	c.failed += n
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// check records one attempted operation that failed iff err is non-nil.
func (c *runCtx) check(what string, err error) {
	c.op(1)
	if err != nil {
		c.failf("%s: %v", what, err)
	}
}

// accountPackets records every offered packet as one operation and every
// undelivered one as failed.
func (c *runCtx) accountPackets(offered, delivered int64, detail string) {
	c.op(offered)
	if miss := offered - delivered; miss > 0 {
		c.failN(miss, "%d of %d packets undelivered%s", miss, offered, detail)
	}
}

// pick returns full, or small when the run is a -quick smoke run.
func (c *runCtx) pick(full, small int) int {
	if c.quick {
		return small
	}
	return full
}

// runResult is one run's outcome: the line the acceptance driver reads
// plus the detail the suite and -diff use.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Reps      int                `json:"reps"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Hash      string             `json:"hash"`
	Metrics   map[string]float64 `json:"metrics"`
	// Timings summarises the per-repetition samples behind the medians.
	Timings map[string]timing `json:"timings,omitempty"`
	spans   *recorder
}

// runOne executes one run of w: the repetitions that fit the time budget
// with tracing off, or one untraced plus one traced repetition and the
// probes with tracing on.
func runOne(w workload, c *runCtx) runResult {
	res := runResult{Workload: w.name, Seed: c.seed, Trace: c.trace, Metrics: make(map[string]float64)}
	if c.trace {
		runTraced(w, c, &res)
	} else {
		runUntraced(w, c, &res)
	}
	res.Attempted, res.Failed, res.Failures = c.attempted, c.failed, c.failures
	res.Correct = c.failed == 0 && c.attempted > 0
	return res
}

func runUntraced(w workload, c *runCtx, res *runResult) {
	// A smoke run makes exactly two repetitions: the fewest that exercise
	// the rep-to-rep equality check.
	n := 2
	if !c.quick {
		n = max(1, int(math.Round(float64(w.reps)*c.seconds/defaultSeconds)))
	}
	reps := make([]repOut, 0, n)
	for len(reps) < n {
		reps = append(reps, w.rep(c, nil))
	}
	checkRepsAgree(c, reps)
	if !c.quick && n >= 2 {
		// The first of several repetitions is the warm-up: it grew the heap,
		// faulted the pages in and filled the caches, which users of a
		// long-running process do not pay per figure. Its outputs were
		// checked with the rest; only its timings are set aside.
		reps = reps[1:]
	}

	col := func(f func(repOut) float64) []float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return xs
	}
	res.Timings = make(map[string]timing)
	for _, s := range []struct {
		name string
		xs   []float64
	}{
		{"setup_s", col(func(r repOut) float64 { return r.setupS })},
		{"wall_s", col(func(r repOut) float64 { return r.wallS })},
		{"events_per_s", col(func(r repOut) float64 { return r.events / r.eventsS })},
		{"delivery_ratio", col(func(r repOut) float64 { return r.delivery })},
	} {
		res.Metrics[s.name] = median(s.xs)
		res.Timings[s.name] = summarize(s.xs)
	}
	res.Reps = len(reps)
	res.Hash = reps[0].hash
}

// checkRepsAgree counts one operation per repetition after the first and
// fails it when the exact outputs differ from the first repetition's.
func checkRepsAgree(c *runCtx, reps []repOut) {
	for i := 1; i < len(reps); i++ {
		c.op(1)
		if reps[i].hash != reps[0].hash {
			c.failf("repetition %d: output hash %s differs from repetition 0's %s", i, short(reps[i].hash), short(reps[0].hash))
		}
	}
}

func runTraced(w workload, c *runCtx, res *runResult) {
	base := w.rep(c, nil)
	rss := peakRSSMiB()
	rec := newRecorder(w.name)
	traced := w.rep(c, rec)
	checkRepsAgree(c, []repOut{base, traced})

	for _, d := range perLayer {
		res.Metrics[d.Name] = 0
	}
	for name, v := range runProbes(c.quick) {
		res.Metrics[name] = v
	}
	// Span-derived metrics come from the traced repetition; counts and the
	// demoted end-to-end numbers from the untraced one, which overrides.
	for name, v := range traced.layer {
		res.Metrics[name] = v
	}
	for name, v := range base.layer {
		res.Metrics[name] = v
	}
	res.Metrics["peak_rss_mb"] = rss
	res.Metrics["delay_ms_mean"] = base.delayMs
	res.Metrics["harness.trace_overhead_ratio"] = traced.wallS / base.wallS
	if w.offline {
		for name, v := range ledger(base, traced, res.Metrics) {
			res.Metrics[name] = v
		}
	}
	res.Reps = 2
	res.Hash = base.hash
	res.spans = rec
}

// timeSetup builds a workload's inputs repeatedly and returns the last
// build with the median build time. A cheap set-up is timed in microseconds,
// and one sample of that is mostly cache state, so builds repeat until
// there are setupSamples of them or they have used setupBudget, whichever
// comes first, and at least three. The budget, not the count, is what
// steadies a microsecond build: a hundred of them sit inside one noisy
// millisecond of a shared host (15–40 % spread over ten runs), 0.15 s of
// them do not (2–4 %). Every build but the last is handed to discard (nil
// if a build holds nothing to release).
func timeSetup[T any](build func() T, discard func(T)) (T, float64) {
	const setupSamples, setupBudget = 10001, 0.15
	var last T
	var times []float64
	for total := 0.0; len(times) < 3 || (len(times) < setupSamples && total < setupBudget); {
		if len(times) > 0 && discard != nil {
			discard(last)
		}
		s := timeIt(func() { last = build() })
		times = append(times, s)
		total += s
	}
	return last, median(times)
}

// digest hashes the exact outputs of a repetition as they are handed to
// it — the telemetry artifacts run to tens of megabytes, too much to hold
// for a hash. Every part is length-prefixed, and floats enter by their bit
// patterns, so two runs agree only when they agree to the last bit. The
// zero value is ready to use.
type digest struct{ h hash.Hash }

func (d *digest) str(s string) {
	if d.h == nil {
		d.h = sha256.New()
	}
	fmt.Fprintf(d.h, "%d:", len(s))
	io.WriteString(d.h, s)
}

func (d *digest) floats(xs ...float64) {
	for _, x := range xs {
		d.str(fmt.Sprintf("%016x", math.Float64bits(x)))
	}
}

func (d *digest) ints(xs ...int64) {
	for _, x := range xs {
		d.str(fmt.Sprint(x))
	}
}

func (d *digest) sum() string {
	d.str("") // also gives an empty digest its hash
	return hex.EncodeToString(d.h.Sum(nil))
}

func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}

// sortedNames returns the keys of m ascending, for stable printing.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	//lint:maporder-ok keys are collected and sorted before any use
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
