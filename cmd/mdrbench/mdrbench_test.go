package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"minroute/internal/core"
	"minroute/internal/leaktest"
	"minroute/internal/report"
	"minroute/internal/topo"
)

// quickRuns memoizes smoke-scale runs: several tests read the same run, and
// each workload should execute once per (seed, trace) however the tests are
// selected.
var quickRuns struct {
	sync.Mutex
	byKey map[string]runResult
}

// quickRun returns the -quick run of one workload, executing it — armed
// against goroutine leaks, the live workloads own dozens — on first use.
func quickRun(t *testing.T, name string, seed uint64, trace bool) runResult {
	t.Helper()
	key := strings.Join([]string{name, string(rune('0' + seed)), map[bool]string{false: "e2e", true: "traced"}[trace]}, "/")
	quickRuns.Lock()
	defer quickRuns.Unlock()
	if res, ok := quickRuns.byKey[key]; ok {
		return res
	}
	leaktest.Check(t)
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	res := runOne(w, &runCtx{seed: seed, quick: true, trace: trace})
	if quickRuns.byKey == nil {
		quickRuns.byKey = make(map[string]runResult)
	}
	quickRuns.byKey[key] = res
	return res
}

// memoRunner is the all-workloads mode's runner for tests: in-process and
// memoized, where the command starts a child per run.
func memoRunner(t *testing.T) runner {
	return func(w workload, c *runCtx) (runResult, error) {
		return quickRun(t, w.name, c.seed, c.trace), nil
	}
}

func TestEveryWorkloadRunsClean(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := quickRun(t, w.name, 1, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			if res.Reps != 2 {
				t.Errorf("smoke run made %d repetitions, want 2", res.Reps)
			}
			for _, d := range endToEnd {
				v, ok := res.Metrics[d.Name]
				if !ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v (present %v): every end-to-end metric must be a finite non-zero number on every workload", d.Name, v, ok)
				}
			}
		})
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestEmittedMatchesDeclared: every run emits exactly the declared names —
// the end-to-end list untraced, the per-layer list traced — on every
// workload.
func TestEmittedMatchesDeclared(t *testing.T) {
	for _, w := range workloads {
		for _, mode := range []struct {
			trace bool
			decls []metricDecl
		}{{false, endToEnd}, {true, perLayer}} {
			res := quickRun(t, w.name, 1, mode.trace)
			if res.Failed != 0 {
				t.Errorf("%s trace=%v: %d failed operations: %v", w.name, mode.trace, res.Failed, res.Failures)
			}
			want := make(map[string]bool, len(mode.decls))
			for _, d := range mode.decls {
				want[d.Name] = true
				v, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: declared metric %s not emitted", w.name, mode.trace, d.Name)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%v: %s = %v", w.name, mode.trace, d.Name, v)
				}
			}
			for name := range res.Metrics {
				if !want[name] {
					t.Errorf("%s trace=%v: emitted metric %s is not declared", w.name, mode.trace, name)
				}
			}
		}
	}
}

// TestProbesCoverTheirMetrics: a probe metric is measured in every traced
// run whatever the workload, so none may read zero even on a workload that
// never enters the layer.
func TestProbesCoverTheirMetrics(t *testing.T) {
	probes := runProbes(true)
	res := quickRun(t, "fwd-relay", 1, true)
	for name := range probes {
		if unitOf[name] == "" {
			t.Errorf("probe emits undeclared metric %s", name)
		}
		// Allocation counts and the quantization error bound may truly be 0.
		if res.Metrics[name] == 0 && !strings.Contains(name, "alloc") {
			t.Errorf("probe metric %s is zero in a traced run", name)
		}
	}
}

func TestDeclarationsAreWellFormed(t *testing.T) {
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(workloads))
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(endToEnd))
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(perLayer))
	}
	seen := make(map[string]bool)
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		use(w.name)
		if len(w.why) == 0 || len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		use(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == lower
			for _, o := range endToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("end-to-end metrics must include setup_s in s, lower is better")
	}
	for _, d := range perLayer {
		use(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", d.Name)
		}
	}
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is not [A-Za-z0-9_/%%.-]{1,16}", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
}

// benchmarkJSON renders the declaration tables as BENCHMARK.json.
func benchmarkJSON(t *testing.T) []byte {
	t.Helper()
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./cmd/mdrbench"},
		Paths:      []string{"cmd/mdrbench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(blob, '\n')
}

// TestBenchmarkJSONMatchesTables holds the root BENCHMARK.json equal to the
// program's declaration tables. BENCH_UPDATE=1 rewrites the file from them.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	path := filepath.Join("..", "..", "BENCHMARK.json")
	want := benchmarkJSON(t)
	if os.Getenv("BENCH_UPDATE") == "1" {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the tables in metrics.go / main.go; rerun with BENCH_UPDATE=1", path)
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(got))
	}
}

func TestTopPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 50, false}, {19, 50, false}, {20, 50, true}, {39, 50, true}, {40, 75, true},
		{100, 90, true}, {199, 90, true}, {200, 95, true}, {1000, 99, true}, {10_000, 99.9, true}, {100_000, 99.99, true},
	} {
		if p, ok := topPercentile(tc.n); p != tc.want || ok != tc.ok {
			t.Errorf("topPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.ok)
		}
	}
	// The summary reads that percentile off the sample.
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if s := summarize(xs); s.TopP != 95 || s.Top != 190 || s.Median != 100.5 {
		t.Errorf("summarize(1..200) = %+v", s)
	}
}

// TestQuartilesMatchPython pins the exclusive method against values from
// Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{2.5, 3.1, 2.9, 3.3, 2.7, 3.0, 2.8}, 2.7, 3.1},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestSpanSelfTime(t *testing.T) {
	rec := newRecorder("w")
	rec.spans = []span{
		{Name: "outer", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "inner", StartNs: 10, EndNs: 40, Parent: 0},
		{Name: "inner", StartNs: 50, EndNs: 70, Parent: 0},
	}
	self := rec.selfTimes()
	if got := self["outer"] * 1e9; math.Abs(got-50) > 1e-6 {
		t.Errorf("outer self = %v ns, want 50", got)
	}
	if got := self["inner"] * 1e9; math.Abs(got-50) > 1e-6 {
		t.Errorf("inner self = %v ns, want 50", got)
	}
	var nilRec *recorder
	ran := false
	nilRec.do("x", func() { ran = true })
	if !ran || nilRec.durations("x") != nil {
		t.Error("a nil recorder must run the call and record nothing")
	}
}

// sampleOf builds a report sample from raw run values.
func sampleOf(xs ...float64) sample { return sample{timing: summarize(xs), Values: xs} }

func TestJudge(t *testing.T) {
	lowerIsBetter := metricDecl{Name: "wall_s", Better: lower, Bound: 0.10}
	higherIsBetter := metricDecl{Name: "events_per_s", Better: higher, Bound: 0.10}
	for _, tc := range []struct {
		name     string
		d        metricDecl
		old, new sample
		want     string
	}{
		{"within bound", lowerIsBetter, sampleOf(1.00, 1.01, 0.99), sampleOf(1.05, 1.04, 1.06), verdictSame},
		{"slower past bound", lowerIsBetter, sampleOf(1.00, 1.01, 0.99), sampleOf(1.20, 1.21, 1.19), verdictWorse},
		{"faster past bound", lowerIsBetter, sampleOf(1.00, 1.01, 0.99), sampleOf(0.80, 0.81, 0.79), verdictBetter},
		{"rate fell past bound", higherIsBetter, sampleOf(100, 101, 99), sampleOf(80, 81, 79), verdictWorse},
		{"rate rose past bound", higherIsBetter, sampleOf(100, 101, 99), sampleOf(120, 121, 119), verdictBetter},
		{"spread hides the move", lowerIsBetter, sampleOf(1.0, 1.3, 0.7), sampleOf(1.2, 1.5, 0.9), verdictUnresolved},
		{"spread wide but every run better", lowerIsBetter, sampleOf(1.0, 1.3, 0.9), sampleOf(0.5, 0.6, 0.4), verdictBetter},
	} {
		if got := judge(tc.d, tc.old, tc.new); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// writeReport writes a one-workload report whose wall_s runs are xs.
func writeReport(t *testing.T, dir, name string, failed int64, xs ...float64) string {
	t.Helper()
	wr := workloadReport{Name: "fig-net1", Runs: len(xs), Attempted: 100, Failed: failed, Hash: "h",
		EndToEnd: make(map[string]sample), PerLayer: map[string]float64{"des.events": 5}}
	for _, d := range endToEnd {
		wr.EndToEnd[d.Name] = sampleOf(1, 1, 1)
	}
	wr.EndToEnd["wall_s"] = sampleOf(xs...)
	blob, err := json.Marshal(suiteReport{Env: currentEnv(), Seed: 1, Workloads: []workloadReport{wr}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDiffExitCodes(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, benchmarkJSON(t), 0o644); err != nil {
		t.Fatal(err)
	}
	base := writeReport(t, dir, "base.json", 0, 1.00, 1.01, 0.99)
	for _, tc := range []struct {
		name, path string
		wantCode   int
		wantText   string
	}{
		{"same", writeReport(t, dir, "same.json", 0, 1.02, 1.01, 1.03), 0, verdictSame},
		{"worse", writeReport(t, dir, "worse.json", 0, 1.30, 1.31, 1.29), 1, verdictWorse},
		{"better", writeReport(t, dir, "better.json", 0, 0.70, 0.71, 0.69), 0, verdictBetter},
		{"unresolved", writeReport(t, dir, "noisy.json", 0, 0.8, 1.3, 1.0), 0, verdictUnresolved},
		{"more failures", writeReport(t, dir, "failing.json", 3, 1.00, 1.01, 0.99), 1, "failed operations rose"},
	} {
		var out, errOut bytes.Buffer
		code := run([]string{"-diff", "-bench", bench, base, tc.path}, &out, &errOut)
		if code != tc.wantCode {
			t.Errorf("%s: exit %d, want %d\n%s%s", tc.name, code, tc.wantCode, out.String(), errOut.String())
		}
		if !strings.Contains(out.String(), tc.wantText) {
			t.Errorf("%s: output lacks %q:\n%s", tc.name, tc.wantText, out.String())
		}
		if !strings.Contains(out.String(), "des.events") {
			t.Errorf("%s: per-layer rows missing:\n%s", tc.name, out.String())
		}
	}
}

// TestSameSeedSameOutputs: independent runs of one seed — here the untraced
// and the traced run, each of which already compared its own repetitions —
// agree on the hash of every exact output; another seed changes the
// generated inputs.
func TestSameSeedSameOutputs(t *testing.T) {
	for _, w := range workloads {
		a, b := quickRun(t, w.name, 1, false), quickRun(t, w.name, 1, true)
		if a.Hash == "" || a.Hash != b.Hash {
			t.Errorf("%s: same seed, hashes %q and %q", w.name, short(a.Hash), short(b.Hash))
		}
		if w.offline {
			if other := quickRun(t, w.name, 2, false); other.Hash == a.Hash {
				t.Errorf("%s: seeds 1 and 2 produced the same outputs", w.name)
			}
		}
	}
	// The live workloads' exact outputs (the converged state, the packet
	// counts) are seed-independent by design; their generators are not.
	s1, s2 := newPacketSchedule(topo.NET1().Flows, 1), newPacketSchedule(topo.NET1().Flows, 2)
	same := s1.subPhase == s2.subPhase
	for i := range s1.order {
		same = same && s1.order[i] == s2.order[i]
	}
	if same {
		t.Error("packet schedules of seeds 1 and 2 are identical")
	}
	g := scaleFree(24).Graph
	e1, e2 := churnSchedule(g, 1, 12), churnSchedule(g, 2, 12)
	same = true
	for i := range e1 {
		same = same && e1[i] == e2[i]
	}
	if same {
		t.Error("churn schedules of seeds 1 and 2 are identical")
	}
	if r1, r2 := churnSchedule(g, 1, 12), e1; len(r1) != 12 || r1[0] != r2[0] || r1[11] != r2[11] {
		t.Error("churn schedule is not a function of its seed")
	}
}

// The mutation checks: each output check must fire when its input is
// corrupted, as a failed operation rather than a log line.

func TestMutationRepHash(t *testing.T) {
	c := &runCtx{}
	checkRepsAgree(c, []repOut{{hash: "aa"}, {hash: "aa"}, {hash: "ab"}})
	if c.attempted != 2 || c.failed != 1 {
		t.Errorf("attempted=%d failed=%d, want 2 and 1", c.attempted, c.failed)
	}
}

func TestMutationRunHash(t *testing.T) {
	w, _ := findWorkload("ctrl-cold-sf240")
	good := quickRun(t, w.name, 1, false)
	calls := 0
	flaky := func(workload, *runCtx) (runResult, error) {
		calls++
		res := good
		if calls == 2 {
			res.Hash = "corrupt"
		}
		return res, nil
	}
	wr, err := runWorkloadSuite(w, suiteConfig{seed: 1, reps: 2, quick: true}, flaky)
	if err != nil {
		t.Fatal(err)
	}
	if wr.Failed != 1 {
		t.Errorf("one corrupted run hash gave %d failed operations, want 1: %v", wr.Failed, wr.Failures)
	}
}

func TestMutationDroppedPacket(t *testing.T) {
	rl := newRelayLine(relayLineHops)
	defer rl.close()
	c := &runCtx{}
	const n = 500
	_, delivered := rl.closedLoop(c, nil, n)
	c.accountPackets(n, delivered, "")
	if c.failed != 0 || c.attempted != n {
		t.Fatalf("clean line: attempted=%d failed=%d", c.attempted, c.failed)
	}
	c = &runCtx{}
	c.accountPackets(n, delivered-1, "") // one packet dropped
	if c.failed != 1 {
		t.Errorf("one dropped packet gave %d failed operations, want 1", c.failed)
	}
}

// A mesh that cannot converge — every control datagram lost — must still
// fail its boot after the retries, and leave nothing running.
func TestMutationDeafMesh(t *testing.T) {
	leaktest.Check(t)
	cfg := liveMeshConfig(1, false)
	cfg.Fault.LossProb = 1
	c := &runCtx{}
	b := bootMesh(c, nil, cfg, 50*time.Millisecond, runtime.NumGoroutine())
	if b.mesh != nil || b.retries != bootTries-1 {
		t.Errorf("deaf mesh: mesh=%v retries=%d, want nil and %d", b.mesh, b.retries, bootTries-1)
	}
	if c.attempted != 1 || c.failed != 1 {
		t.Errorf("deaf mesh: attempted=%d failed=%d, want 1 and 1: %v", c.attempted, c.failed, c.failures)
	}
}

func TestMutationShadowColumn(t *testing.T) {
	fig := &report.Figure{ID: "fig12", Columns: []string{"OPT", mpColumn}}
	fig.AddRow("0:a", 1, 2)
	fig.AddRow("1:b", 3, 4)
	figs := map[string]*report.Figure{"fig12": fig}
	c := &runCtx{}
	checkShadow(c, net1Shadows[0], &core.Report{MeanDelayMs: []float64{2, 4}}, figs)
	if c.attempted != 1 || c.failed != 0 {
		t.Fatalf("matching column: attempted=%d failed=%d", c.attempted, c.failed)
	}
	checkShadow(c, net1Shadows[0], &core.Report{MeanDelayMs: []float64{2, math.Nextafter(4, 5)}}, figs)
	if c.failed != 1 {
		t.Errorf("a one-ulp difference gave %d failed operations, want 1", c.failed)
	}
}

func TestMutationShardedReport(t *testing.T) {
	c := &runCtx{seed: 1, quick: true}
	serial := desRep(c, nil)
	if c.failed != 0 {
		t.Fatal(c.failures)
	}
	desSharded(c, &serial)
	if c.failed != 0 || serial.layer["despart.identical"] != 1 {
		t.Fatalf("sharded run differs from serial: %v", c.failures)
	}
	serial.hash = "corrupt"
	desSharded(c, &serial)
	if c.failed != 1 || serial.layer["despart.identical"] != 0 {
		t.Errorf("corrupted serial hash: failed=%d identical=%v, want 1 and 0", c.failed, serial.layer["despart.identical"])
	}
}

func TestMutationOracles(t *testing.T) {
	c := &runCtx{}
	cn := newCtrlNet(scaleFree(24).Graph, 1, nil)
	cn.net.BringUpAll(protoCost)
	cn.quiesce(c)
	cn.audit(c, "converged")
	if c.attempted != 3 || c.failed != 0 {
		t.Fatalf("converged network: attempted=%d failed=%d %v", c.attempted, c.failed, c.failures)
	}
	// Change a cost and audit before delivering the LSUs it floods: the
	// tables now disagree with the true graph, and the convergence oracle
	// must say so.
	cn.apply(churnEvent{kind: "up", a: cn.g.Links()[0].From, b: cn.g.Links()[0].To})
	cn.audit(c, "mid-flood")
	if c.failed == 0 {
		t.Error("auditing a network mid-flood failed no operation")
	}
}

func TestCommandLine(t *testing.T) {
	leaktest.Check(t)
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "ctrl-cold-sf240", "--seed", "3", "--seconds", "1", "--trace", "0", "-quick"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var final map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if len(final) != 4 {
		t.Errorf("result has keys %v, want exactly correct, attempted, failed, metrics", final)
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(final["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want the %d end-to-end ones", len(metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if metrics[d.Name].Unit != d.Unit {
			t.Errorf("%s printed with unit %q, want %q", d.Name, metrics[d.Name].Unit, d.Unit)
		}
	}
	if code := run([]string{"-workload", "nope"}, &out, &errOut); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
	out.Reset()
	if code := run([]string{"-list"}, &out, &errOut); code != 0 || strings.Count(out.String(), "\n") != len(workloads) {
		t.Errorf("-list: exit %d, output %q", code, out.String())
	}
}

// TestSuiteReportAndSelfDiff runs the all-workloads mode in-process at
// smoke scale, then diffs its report against itself: no verdict may be
// worse, and the report must carry the environment.
func TestSuiteReportAndSelfDiff(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")
	var out, errOut bytes.Buffer
	if code := runSuite(suiteConfig{seed: 1, reps: 1, quick: true, out: path}, memoRunner(t), &out, &errOut); code != 0 {
		t.Fatalf("suite exit %d: %s", code, errOut.String())
	}
	var rep suiteReport
	if err := readJSON(path, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Env.NumCPU < 1 || rep.Env.GOMAXPROCS < 1 || rep.Env.Go == "" || rep.Env.Commit == "" {
		t.Errorf("report environment incomplete: %+v", rep.Env)
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("report has %d workloads, want %d", len(rep.Workloads), len(workloads))
	}
	for _, name := range []string{"wall_s", "ledger.unattributed_share", "harness.trace_overhead_ratio"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("suite output does not print %s", name)
		}
	}
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, benchmarkJSON(t), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-diff", "-bench", bench, path, path}, &out, &errOut); code != 0 {
		t.Errorf("self-diff exit %d:\n%s", code, out.String())
	}
	if strings.Contains(out.String(), verdictWorse) {
		t.Errorf("self-diff reports a worse verdict:\n%s", out.String())
	}
}
