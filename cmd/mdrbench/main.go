// Command mdrbench is the repository's one benchmark: seven named
// workloads over the three substrates (packet simulator, untimed protocol
// harness, live mesh), four end-to-end metrics every workload reports, and
// a traced run that prices each layer and reconciles the prices against
// the workload's wall time. BENCHMARK.json at the repository root declares
// the same names, units, directions and regression bounds; README.md in
// this directory explains the choices.
//
// Usage:
//
//	mdrbench -workload W -seed N -seconds S -trace 0|1   # one run, one JSON result line
//	mdrbench [-reps R] [-seconds S] [-out report.json]   # every workload, R runs each + one traced
//	mdrbench -diff old.json new.json                     # compare two reports against the bounds
//	mdrbench -list
//
// -quick shrinks every workload to smoke-test scale; its numbers are not
// comparable with anything.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
)

// defaultSeconds is how long one run measures, BENCHMARK.json's
// run_seconds.
const defaultSeconds = 10

// workloads lists the benchmark's inputs in presentation order. The why
// strings are BENCHMARK.json's, held equal by a test.
var workloads = []workload{
	{
		name:    "fig-net1",
		why:     "fig10, fig12, fig14 at Quick on NET1: what a reader of the paper runs; per-packet path (eventq, link pipeline, router) dominates, control plane ~8 %",
		offline: true,
		reps:    3,
		rep:     figNet1Rep,
	},
	{
		name:    "fig-net1-tel",
		why:     "fig14 with telemetry capture and three-artifact export: the same layers with internal/telemetry doing real work, so a tax on the enabled path shows here and one on the disabled path on fig-net1",
		offline: true,
		reps:    3,
		rep:     figNet1TelRep,
	},
	{
		name:    "des-sf160",
		why:     "160-router scale-free packet simulation over one full Tl period: per-LSU MTU/Dijkstra does most of the work, eventq and links little",
		offline: true,
		reps:    1,
		rep:     desRep,
	},
	{
		name:    "ctrl-cold-sf240",
		why:     "pure control plane, cold-start flood on 240 routers: small growing tables, full-topology LSUs, no simulator underneath",
		offline: true,
		reps:    3,
		rep:     ctrlColdRep,
	},
	{
		name:    "ctrl-churn-sf160",
		why:     "same layer used the opposite way: one-entry LSUs against full tables after seeded single-link events; set-up is the cold boot, so work moved there shows",
		offline: true,
		reps:    2,
		rep:     ctrlChurnRep,
	},
	{
		name: "live-net1",
		why:  "live NET1 mesh on loopback UDP with 10 % control loss and duplication: cold boots timed to convergence, then open-loop traffic at 20 k pps for delivered per-commodity delay",
		reps: 1,
		rep:  liveNet1Rep,
	},
	{
		name: "fwd-relay",
		why:  "three forwarders in a line on the in-memory fabric, control plane idle: per-packet codec + lookup + copy + relay cost, closed loop for rate, then open loop at 20 k pps for transit time",
		reps: 1,
		rep:  fwdRelayRep,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// environment is recorded in every file the benchmark writes.
type environment struct {
	Go         string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
}

func currentEnv() environment {
	env := environment{
		Go:         runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code as values, so tests drive the
// command line without a process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdrbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run this one workload and print one JSON result line (default: run them all)")
		seed    = fs.Uint64("seed", 1, "seed of every stochastic input")
		seconds = fs.Float64("seconds", defaultSeconds, "how long one run measures")
		trace   = fs.Int("trace", 0, "1 records spans and runs the probes, reporting the per-layer metrics; 0 reports the end-to-end metrics")
		quick   = fs.Bool("quick", false, "smoke-test scale; numbers not comparable")
		spans   = fs.String("spans", "", "with -trace 1, write the recorded spans to this file")
		reps    = fs.Int("reps", 3, "untraced runs per workload when running them all")
		out     = fs.String("out", "", "when running them all, write the report to this file")
		diff    = fs.Bool("diff", false, "compare two reports: mdrbench -diff old.json new.json")
		bench   = fs.String("bench", "BENCHMARK.json", "with -diff, the declaration file holding the bounds")
		list    = fs.Bool("list", false, "list the workloads and why each exists")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *list:
		for _, w := range workloads {
			fmt.Fprintf(stdout, "%-18s %s\n", w.name, w.why)
		}
		return 0
	case *diff:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "mdrbench: -diff needs two report files")
			return 2
		}
		return runDiff(fs.Arg(0), fs.Arg(1), *bench, stdout, stderr)
	case *name == "":
		cfg := suiteConfig{seed: *seed, seconds: *seconds, reps: *reps, quick: *quick, out: *out}
		return runSuite(cfg, childProcess, stdout, stderr)
	}

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "mdrbench: unknown workload %q (try -list)\n", *name)
		return 2
	}
	c := &runCtx{seed: *seed, seconds: *seconds, quick: *quick, trace: *trace != 0}
	res := runOne(w, c)
	if *spans != "" && res.spans != nil {
		if err := res.spans.write(*spans); err != nil {
			fmt.Fprintf(stderr, "mdrbench: %v\n", err)
			return 1
		}
	}
	if err := printRun(stdout, res); err != nil {
		fmt.Fprintf(stderr, "mdrbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// detailPrefix marks the line carrying the full runResult, which the
// all-workloads mode reads back from its child processes.
const detailPrefix = "#detail "

// printRun writes a run's metrics by name with unit, then the detail line,
// then — last — the one JSON object the acceptance driver parses.
func printRun(w io.Writer, res runResult) error {
	fmt.Fprintf(w, "mdrbench %s seed=%d trace=%v reps=%d attempted=%d failed=%d hash=%s\n",
		res.Workload, res.Seed, res.Trace, res.Reps, res.Attempted, res.Failed, short(res.Hash))
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	for _, name := range sortedNames(res.Metrics) {
		line := fmt.Sprintf("  %-30s %14.6g %-10s", name, res.Metrics[name], unitOf[name])
		if t, ok := res.Timings[name]; ok && t.N > 1 {
			line += "  " + t.String()
		}
		fmt.Fprintln(w, line)
	}
	// A NaN or Inf metric is unencodable; that is a broken run, and it must
	// not look like a result.
	detail, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("result not encodable: %w", err)
	}
	fmt.Fprintf(w, "%s%s\n", detailPrefix, detail)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]value, len(res.Metrics))}
	for name, v := range res.Metrics {
		final.Metrics[name] = value{v, unitOf[name]}
	}
	blob, err := json.Marshal(final)
	if err != nil {
		return fmt.Errorf("result not encodable: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}
