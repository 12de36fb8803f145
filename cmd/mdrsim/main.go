// Command mdrsim regenerates the paper's evaluation figures and runs
// user-supplied scenarios.
//
// Usage:
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
// Scenario files use the internal/topo.Parse format: node/link/flow lines.
// Figures are produced by internal/experiments; see DESIGN.md for the
// experiment index and EXPERIMENTS.md for reference results.
package main

import (
	"flag"
	"fmt"
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
	var (
		figID = flag.String("fig", "", "figure to regenerate (fig9..fig16)")
		all   = flag.Bool("all", false, "regenerate every figure")
		quick = flag.Bool("quick", false, "quick settings (shorter warmup/measurement)")
		csv   = flag.Bool("csv", false, "emit CSV instead of a table")
		chart = flag.Bool("chart", false, "emit an ASCII chart after the table")
		list  = flag.Bool("list", false, "list available figures")
		seed  = flag.Uint64("seed", 1, "simulation seed")
		runs  = flag.Int("runs", 0, "average each scheme over this many seeds (0 = setting default)")

		scenario = flag.String("scenario", "", "simulate a custom network from a topo.Parse file")
		mode     = flag.String("mode", "mp", "routing mode for -scenario: mp, sp, or ecmp")
		compare  = flag.Bool("compare", false, "with -scenario: compare OPT, MP, SP and ECMP")
		svgDir   = flag.String("svg", "", "also write each figure as an SVG chart into this directory")

		chaosArg = flag.String("chaos", "", "replay a chaos scenario: a registry name (see -chaos list) or a JSON file")

		telemetryDir = flag.String("telemetry", "", "export telemetry artifacts (events JSONL, Chrome trace, metrics) into this directory")

		shards     = flag.Int("shards", 0, "partition each simulation's routers across this many event-engine shards (0/1 = serial)")
		workers    = flag.Int("workers", 0, "max simulations running concurrently (0 = GOMAXPROCS)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	simpool.SetWorkers(*workers)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdrsim: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "mdrsim: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mdrsim: -memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "mdrsim: -memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	if *list {
		for _, id := range experiments.IDs {
			fmt.Println(id)
		}
		return
	}

	if *telemetryDir != "" {
		if err := os.MkdirAll(*telemetryDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "mdrsim: -telemetry: %v\n", err)
			os.Exit(1)
		}
	}

	set := experiments.Full
	if *quick {
		set = experiments.Quick
	}
	set.Seed = *seed
	if *runs > 0 {
		set.Runs = *runs
	}
	set.TelemetryDir = *telemetryDir
	set.Shards = *shards

	if *chaosArg != "" {
		if err := runChaos(*chaosArg, *telemetryDir, *shards); err != nil {
			fmt.Fprintf(os.Stderr, "mdrsim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *scenario != "" {
		var err error
		if *compare {
			err = compareScenario(*scenario, set, *csv)
		} else {
			err = runScenario(*scenario, *mode, set)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdrsim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var ids []string
	switch {
	case *all:
		ids = experiments.IDs
	case *figID != "":
		if experiments.All[*figID] == nil {
			fmt.Fprintf(os.Stderr, "mdrsim: unknown figure %q (try -list)\n", *figID)
			os.Exit(2)
		}
		ids = []string{*figID}
	default:
		flag.Usage()
		os.Exit(2)
	}

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
			fmt.Fprintf(os.Stderr, "mdrsim: %s: %v\n", id, res.err)
			os.Exit(1)
		}
		if *csv {
			fmt.Print(res.fig.CSV())
		} else {
			fmt.Print(res.fig.Table())
			if *chart {
				fmt.Print(res.fig.Chart(60))
			}
			fmt.Printf("  (%.1fs wall)\n\n", res.wall.Seconds())
		}
		if *svgDir != "" {
			path := filepath.Join(*svgDir, id+".svg")
			if err := os.WriteFile(path, []byte(res.fig.SVG(0, 0)), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "mdrsim: write %s: %v\n", path, err)
				os.Exit(1)
			}
		}
	}
	if len(ids) > 1 && !*csv {
		fmt.Printf("total: %d figures in %.1fs wall (%d workers)\n",
			//lint:nowall-ok operator-facing progress timing, never enters figures
			len(ids), time.Since(wallStart).Seconds(), simpool.Workers())
	}
}

// warnTraceDrops reports ring-buffer evictions so a truncated event log is
// never mistaken for a complete one.
func warnTraceDrops(label string, tel *telemetry.Capture) {
	if n := tel.Trace.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "mdrsim: warning: %s: telemetry ring dropped %d events (raise ring capacity for a complete log)\n", label, n)
	}
}

// runChaos replays a chaos scenario — by registry name or from a JSON file —
// through both runners with every invariant oracle armed, and reports the
// per-oracle counts and trace hashes. `mdrsim -chaos list` prints the
// registry. A violation makes the replay fail. With -telemetry, each
// runner's full event timeline is exported as <name>_<runner>.*. With
// -shards N (N > 1) a third, sharded DES replay runs as well: its oracles
// fire at conservative-window barriers rather than per event, so its trace
// hash is its own golden (identical across shard counts, not vs serial).
func runChaos(arg, telemetryDir string, shards int) error {
	if arg == "list" {
		for _, name := range experiments.ChaosNames() {
			fmt.Println(name)
		}
		return nil
	}
	s, err := experiments.ChaosScenario(arg)
	if err != nil {
		if _, statErr := os.Stat(arg); statErr != nil {
			return err // neither a registry name nor a readable file
		}
		if s, err = chaos.Load(arg); err != nil {
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
	if shards > 1 {
		runners = append(runners, runner{
			fmt.Sprintf("des-sharded%d", shards),
			func(s *chaos.Scenario, tel *telemetry.Capture) (*chaos.Result, error) {
				return chaos.RunDESShardedWith(s, shards, tel)
			},
		})
	}
	failed := false
	for _, r := range runners {
		var tel *telemetry.Capture
		if telemetryDir != "" {
			tel = telemetry.NewCapture(tn.Graph.NumNodes())
		}
		res, err := r.fn(s, tel)
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		if tel != nil {
			prefix := fmt.Sprintf("%s_%s", s.Name, r.name)
			if err := tel.Export(telemetryDir, prefix); err != nil {
				return fmt.Errorf("%s: telemetry export: %w", r.name, err)
			}
			warnTraceDrops(prefix, tel)
		}
		fmt.Printf("%s %s: %d events, trace sha256 %s\n", s.Name, r.name, res.Events, res.TraceHash)
		for _, c := range res.Log.Counts() {
			fmt.Printf("  oracle %-22s ran %d times\n", c.Check, c.Count)
		}
		for _, v := range res.Log.Violations {
			failed = true
			fmt.Printf("  VIOLATION %s\n", v)
		}
	}
	if failed {
		return fmt.Errorf("chaos scenario %s violated invariants", s.Name)
	}
	fmt.Println("all invariants held")
	return nil
}

// runScenario simulates one custom network at the given settings, under the
// scheme -compare reports for the same mode. With -telemetry, the run's
// artifacts are exported as scenario_<mode>_s<seed>.*.
func runScenario(path, mode string, set experiments.Settings) error {
	net, err := loadScenario(path)
	if err != nil {
		return err
	}
	sim, err := experiments.Scenario(net, mode, set)
	if err != nil {
		return err
	}
	if tel := sim.Telemetry(); tel != nil {
		warnTraceDrops(fmt.Sprintf("scenario_%s_s%d", mode, set.Seed), tel)
	}
	rep := sim.Report()
	fmt.Printf("%s on %s (%d nodes, %d links, %d flows):\n",
		strings.ToUpper(mode), path, net.Graph.NumNodes(), net.Graph.NumLinks(), len(net.Flows))
	fmt.Print(rep)
	fmt.Printf("mean over flows: %.3f ms, loss: %.5f, LSUs: %d\n",
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

// compareScenario runs the full scheme spectrum on a custom network.
func compareScenario(path string, set experiments.Settings, asCSV bool) error {
	net, err := loadScenario(path)
	if err != nil {
		return err
	}
	fig, err := experiments.CustomComparison(net, set)
	if err != nil {
		return err
	}
	if asCSV {
		fmt.Print(fig.CSV())
	} else {
		fmt.Print(fig.Table())
	}
	return nil
}
