// Command mdrsim is the paper-facing front door: it regenerates the
// evaluation figures, runs user-supplied scenarios, replays and hunts chaos
// schedules, solves Gallager's OPT and inspects or generates topologies.
//
// Usage (exactly one mode flag per run):
//
//	mdrsim -fig fig9            # one figure at full (paper-quality) scale
//	mdrsim -all -quick          # every figure at quick scale
//	mdrsim -fig fig12 -csv      # machine-readable output
//	mdrsim -fig fig11 -chart    # ASCII bar chart
//	mdrsim -list                # available figures
//
//	mdrsim -scenario net.txt               # simulate a custom network (MP)
//	mdrsim -scenario net.txt -mode sp      # ... with single-path routing
//
//	mdrsim -chaos link-flap                # replay a chaos scenario under every oracle
//	mdrsim -fuzz 200 -des                  # 200 generated scenarios, both runners
//
//	mdrsim -opt net1 -splits               # Gallager's OPT with its multipath splits
//	mdrsim -topo cairn -links              # a paper topology's stats and links
//	mdrsim -topo scalefree -n 200 -flows 64 -out big.topo  # a large scenario file
//
// Scenario files use the internal/topo.Parse format: node/link/flow lines.
// Figures are produced by internal/experiments; see DESIGN.md for the
// experiment index and EXPERIMENTS.md for reference results.
//
// Exit status: 0 on success, 1 on an error or an invariant violation, 2 on
// a usage error (a bad flag, two modes, an unknown figure, topology or
// -mode).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"minroute/internal/chaos"
	"minroute/internal/experiments"
	"minroute/internal/report"
	"minroute/internal/simpool"
	"minroute/internal/telemetry"
	"minroute/internal/topo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options holds every command-line value.
type options struct {
	fig, scenario, mode, svg, chaos, telemetry string
	all, quick, csv, chart, list, compare      bool
	seed                                       uint64
	runs, workers                              int
	cpuprofile, memprofile                     string

	fuzz         int
	des, verbose bool
	out          string

	opt    string
	splits bool
	scale  float64

	topo     string
	links    bool
	n, flows int
}

// newFlags binds a fresh options to a flag set that reports to stderr.
func newFlags(stderr io.Writer) (*flag.FlagSet, *options) {
	o := &options{}
	fs := flag.NewFlagSet("mdrsim", flag.ContinueOnError)
	fs.SetOutput(stderr)

	fs.StringVar(&o.fig, "fig", "", "figure to regenerate (fig9..fig16)")
	fs.BoolVar(&o.all, "all", false, "regenerate every figure")
	fs.BoolVar(&o.quick, "quick", false, "quick settings (shorter warmup/measurement)")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of a table")
	fs.BoolVar(&o.chart, "chart", false, "emit an ASCII chart after the table")
	fs.BoolVar(&o.list, "list", false, "list available figures")
	fs.Uint64Var(&o.seed, "seed", 1, "simulation seed; with -fuzz the first scenario seed, with -topo scalefree|grid the generator seed")
	fs.IntVar(&o.runs, "runs", 0, "average each scheme over this many seeds (0 = setting default)")

	fs.StringVar(&o.scenario, "scenario", "", "simulate a custom network from a topo.Parse file")
	fs.StringVar(&o.mode, "mode", "mp", "routing mode for -scenario: mp or sp")
	fs.BoolVar(&o.compare, "compare", false, "with -scenario: compare OPT, MP and SP")
	fs.StringVar(&o.svg, "svg", "", "also write each figure as an SVG chart into this directory")

	fs.StringVar(&o.chaos, "chaos", "", "replay a chaos scenario: a registry name (see -chaos list) or a JSON file")
	fs.IntVar(&o.fuzz, "fuzz", 0, "hunt invariant violations over this many generated chaos scenarios (seeds -seed onward) and shrink the first one found")
	fs.BoolVar(&o.des, "des", false, "with -fuzz: also run each scenario in the packet simulator")
	fs.BoolVar(&o.verbose, "v", false, "with -fuzz: print every scenario result")
	fs.StringVar(&o.out, "out", "", "with -fuzz: the shrunk reproducer's path (default "+reproPath+"); with -topo scalefree|grid: the generated network's file (default stdout)")

	fs.StringVar(&o.opt, "opt", "", "solve Gallager's OPT on a paper topology (cairn or net1) and print its delays and utilizations")
	fs.BoolVar(&o.splits, "splits", false, "with -opt: print multipath splits at every router")
	fs.Float64Var(&o.scale, "scale", 1.0, "with -opt: scale factor applied to all flow rates")

	fs.StringVar(&o.topo, "topo", "", "print a paper topology's stats (cairn or net1) or generate a network in the scenario format (scalefree or grid)")
	fs.BoolVar(&o.links, "links", false, "with -topo cairn|net1: print the full link list")
	fs.IntVar(&o.n, "n", 200, "with -topo scalefree|grid: router count")
	fs.IntVar(&o.flows, "flows", 64, "with -topo scalefree|grid: flow count")

	fs.StringVar(&o.telemetry, "telemetry", "", "export telemetry artifacts (events JSONL, metrics) into this directory")

	fs.IntVar(&o.workers, "workers", 0, "max simulations (or -fuzz scenarios) running concurrently (0 = GOMAXPROCS)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	return fs, o
}

// modeFunc runs one mode, writing its output to stdout and its warnings to
// stderr.
type modeFunc func(o *options, stdout, stderr io.Writer) error

// selectMode returns the one mode the flags ask for, nil for none, or a
// usage error for more than one.
func (o *options) selectMode() (modeFunc, error) {
	var names []string
	var chosen modeFunc
	for _, m := range []struct {
		name string
		set  bool
		run  modeFunc
	}{
		{"-list", o.list, runList},
		{"-fig", o.fig != "", runFigures},
		{"-all", o.all, runFigures},
		{"-scenario", o.scenario != "", runScenario},
		{"-chaos", o.chaos != "", runChaos},
		{"-fuzz", o.fuzz > 0, runFuzz},
		{"-opt", o.opt != "", runOpt},
		{"-topo", o.topo != "", runTopo},
	} {
		if m.set {
			names = append(names, m.name)
			chosen = m.run
		}
	}
	if len(names) > 1 {
		return nil, usageError{fmt.Errorf("%s: give one mode per run", strings.Join(names, ", "))}
	}
	return chosen, nil
}

// usageError marks an error that exits 2, like a bad flag.
type usageError struct{ error }

// run is the whole command: it parses args, runs the selected mode between
// starting and stopping the profiles, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs, o := newFlags(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	mode, err := o.selectMode()
	if err != nil {
		return exitCode(stderr, err)
	}
	if mode == nil {
		fs.Usage()
		return 2
	}
	simpool.SetWorkers(o.workers)
	stopProfiles, err := startProfiles(o.cpuprofile, o.memprofile)
	if err != nil {
		return exitCode(stderr, err)
	}
	if err = o.makeDirs(); err == nil {
		err = mode(o, stdout, stderr)
	}
	return exitCode(stderr, err, stopProfiles())
}

// exitCode reports each non-nil error on stderr and returns the status the
// first one calls for.
func exitCode(stderr io.Writer, errs ...error) int {
	code := 0
	for _, err := range errs {
		if err == nil {
			continue
		}
		fmt.Fprintf(stderr, "mdrsim: %v\n", err)
		if code == 0 {
			code = 1
			if errors.As(err, new(usageError)) {
				code = 2
			}
		}
	}
	return code
}

// makeDirs creates the -telemetry and -svg directories up front, so a run
// never fails on a missing directory after its work is done.
func (o *options) makeDirs() error {
	for _, d := range [][2]string{{"-telemetry", o.telemetry}, {"-svg", o.svg}} {
		if d[1] == "" {
			continue
		}
		if err := os.MkdirAll(d[1], 0o755); err != nil {
			return fmt.Errorf("%s: %w", d[0], err)
		}
	}
	return nil
}

// startProfiles starts the CPU profile and returns the function that stops
// it and writes the heap profile; run calls it on every exit path.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				errs = append(errs, fmt.Errorf("-cpuprofile: %w", err))
			}
		}
		if memPath != "" {
			err := writeFile(memPath, func(w io.Writer) error {
				runtime.GC()
				return pprof.WriteHeapProfile(w)
			})
			if err != nil {
				errs = append(errs, fmt.Errorf("-memprofile: %w", err))
			}
		}
		return errors.Join(errs...)
	}, nil
}

// writeFile creates path, fills it with write and closes it, returning the
// first error of the three.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// settings is the experiment setting the flags select.
func (o *options) settings() experiments.Settings {
	set := experiments.Full
	if o.quick {
		set = experiments.Quick
	}
	set.Seed = o.seed
	if o.runs > 0 {
		set.Runs = o.runs
	}
	set.TelemetryDir = o.telemetry
	return set
}

func runList(_ *options, stdout, _ io.Writer) error {
	for _, id := range experiments.IDs {
		fmt.Fprintln(stdout, id)
	}
	return nil
}

// runFigures generates -fig or every figure for -all, and warns of each
// truncated telemetry export.
func runFigures(o *options, stdout, stderr io.Writer) error {
	ids := experiments.IDs
	if !o.all {
		if experiments.All[o.fig] == nil {
			return usageError{fmt.Errorf("unknown figure %q (try -list)", o.fig)}
		}
		ids = []string{o.fig}
	}
	set := o.settings()

	// Generate every requested figure concurrently: each figure is a cheap
	// coordinator goroutine whose individual simulations are bounded by the
	// process-wide simpool semaphore (-workers). Output is printed in the
	// requested order once all figures are in, so it is byte-identical to
	// the serial harness's.
	type figResult struct {
		fig  *report.Figure
		err  error
		wall time.Duration
	}
	results := make([]figResult, len(ids))
	//lint:nowall-ok operator-facing progress timing, never enters figures
	wallStart := time.Now()
	g := simpool.Coordinator()
	for i, id := range ids {
		i, id := i, id
		g.Go(func() error {
			start := time.Now() //lint:nowall-ok operator-facing progress timing, never enters figures
			fig, err := experiments.All[id](set)
			//lint:nowall-ok operator-facing progress timing, never enters figures
			results[i] = figResult{fig: fig, err: err, wall: time.Since(start)}
			return err
		})
	}
	g.Wait() // errors surface per-figure below, in presentation order

	for i, id := range ids {
		res := results[i]
		if res.err != nil {
			return fmt.Errorf("%s: %w", id, res.err)
		}
		warn(stderr, res.fig.Warnings...)
		if o.csv {
			fmt.Fprint(stdout, res.fig.CSV())
		} else {
			fmt.Fprint(stdout, res.fig.Table())
			if o.chart {
				fmt.Fprint(stdout, res.fig.Chart(60))
			}
			fmt.Fprintf(stdout, "  (%.1fs wall)\n\n", res.wall.Seconds())
		}
		if o.svg != "" {
			path := filepath.Join(o.svg, id+".svg")
			if err := os.WriteFile(path, []byte(res.fig.SVG(0, 0)), 0o644); err != nil {
				return fmt.Errorf("write %s: %w", path, err)
			}
		}
	}
	if len(ids) > 1 && !o.csv {
		fmt.Fprintf(stdout, "total: %d figures in %.1fs wall (%d workers)\n",
			//lint:nowall-ok operator-facing progress timing, never enters figures
			len(ids), time.Since(wallStart).Seconds(), simpool.Workers())
	}
	return nil
}

// warn prints each non-empty warning on stderr.
func warn(stderr io.Writer, warnings ...string) {
	for _, w := range warnings {
		if w != "" {
			fmt.Fprintf(stderr, "mdrsim: warning: %s\n", w)
		}
	}
}

// runChaos replays a chaos scenario — by registry name or from a JSON file —
// through both runners with every invariant oracle armed, and reports the
// per-oracle counts and trace hashes. `mdrsim -chaos list` prints the
// registry. A violation makes the replay fail. With -telemetry, each
// runner's full event timeline is exported as <name>_<runner>.*.
func runChaos(o *options, stdout, stderr io.Writer) error {
	if o.chaos == "list" {
		for _, name := range experiments.ChaosNames() {
			fmt.Fprintln(stdout, name)
		}
		return nil
	}
	s, err := experiments.ChaosScenario(o.chaos)
	if err != nil {
		if _, statErr := os.Stat(o.chaos); statErr != nil {
			return err // neither a registry name nor a readable file
		}
		if s, err = chaos.Load(o.chaos); err != nil {
			return err
		}
	}
	tn, err := s.Network()
	if err != nil {
		return err
	}
	type runner struct {
		name string
		fn   func(*chaos.Scenario, *telemetry.Capture) (*chaos.Result, error)
	}
	runners := []runner{{"proto", chaos.RunProtoWith}, {"des", chaos.RunDESWith}}
	failed := false
	for _, r := range runners {
		var tel *telemetry.Capture
		if o.telemetry != "" {
			tel = telemetry.NewCapture(tn.Graph.NumNodes())
		}
		res, err := r.fn(s, tel)
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		if tel != nil {
			prefix := fmt.Sprintf("%s_%s", s.Name, r.name)
			if err := tel.Export(o.telemetry, prefix); err != nil {
				return fmt.Errorf("%s: telemetry export: %w", r.name, err)
			}
			warn(stderr, tel.Truncation(prefix))
		}
		fmt.Fprintf(stdout, "%s %s: %d events, trace sha256 %s\n", s.Name, r.name, res.Events, res.TraceHash)
		for _, c := range res.Log.Counts() {
			fmt.Fprintf(stdout, "  oracle %-22s ran %d times\n", c.Check, c.Count)
		}
		for _, v := range res.Log.Violations {
			failed = true
			fmt.Fprintf(stdout, "  VIOLATION %s\n", v)
		}
	}
	if failed {
		return fmt.Errorf("chaos scenario %s violated invariants", s.Name)
	}
	fmt.Fprintln(stdout, "all invariants held")
	return nil
}

// runScenario simulates one custom network: with -compare the full scheme
// spectrum, otherwise the one scheme -compare reports for -mode. With
// -telemetry, a single-mode run's artifacts are exported as
// scenario_<mode>_s<seed>.*.
func runScenario(o *options, stdout, stderr io.Writer) error {
	if !o.compare {
		if err := experiments.ScenarioMode(o.mode); err != nil {
			return usageError{err}
		}
	}
	net, err := loadScenario(o.scenario)
	if err != nil {
		return err
	}
	set := o.settings()
	if o.compare {
		fig, err := experiments.CustomComparison(net, set)
		if err != nil {
			return err
		}
		warn(stderr, fig.Warnings...)
		if o.csv {
			fmt.Fprint(stdout, fig.CSV())
		} else {
			fmt.Fprint(stdout, fig.Table())
		}
		return nil
	}
	sim, warnings, err := experiments.Scenario(net, o.mode, set)
	if err != nil {
		return err
	}
	warn(stderr, warnings...)
	rep := sim.Report()
	fmt.Fprintf(stdout, "%s on %s (%d nodes, %d links, %d flows):\n",
		strings.ToUpper(o.mode), o.scenario, net.Graph.NumNodes(), net.Graph.NumLinks(), len(net.Flows))
	fmt.Fprint(stdout, rep)
	fmt.Fprintf(stdout, "mean over flows: %.3f ms, loss: %.5f, LSUs: %d\n",
		rep.AvgMeanDelayMs(), rep.LossRate(), rep.ControlMessages)
	return nil
}

func loadScenario(path string) (*topo.Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return topo.Parse(f)
}
