// Package experiments regenerates every figure of the paper's evaluation
// (Section 5) plus the reconstructed dynamic-traffic experiments, the
// ablations and the sweeps. A figure is a list of schemes — OPT (Gallager),
// MP (the paper's framework at the stated Tl/Ts), SP (single-path), or an
// ablated variant of one — and a drive function; simulate runs each
// scheme on the same topology, traffic and seeds and hands back one vector
// per scheme, which the figure lays out as a report.Figure.
//
// The runner's contract. simulate is the only caller of core.Build: it
// derives the options from the scheme and the Settings (scheme.options, the
// one statement of the SP measurement rule), attaches a telemetry
// capture when Settings.TelemetryDir is set, builds one serial network,
// installs the scheme's static φ if it has one, calls the drive function,
// and exports the capture under <id>_<label>_s<seed>, so every figure
// honours TelemetryDir and a figure that runs one scheme on several
// networks gives each its own id to keep the prefixes unique; a truncated
// export comes back as a warning for the figure to carry. The export
// runs after the simulation has released its worker slot, beside the next
// simulation, and simulate returns only once every export is written. A
// drive function receives the network unstarted and may advance it only
// through Run, Start, RunUntil and BeginMeasurement, may inject faults
// between those calls, audits loop-freedom itself, and returns a vector
// whose length does not depend on the seed: simulate averages it
// element-wise over Settings.Runs seeds, in seed order, so the figure is
// bit-identical at any worker count. The simpool workers are the harness's
// only concurrency: each simulation runs on one event engine.
//
// See DESIGN.md for the experiment index and EXPERIMENTS.md for measured
// results and shape comparisons against the paper.
package experiments

import (
	"cmp"
	"fmt"
	"slices"

	"minroute/internal/alloc"
	"minroute/internal/core"
	"minroute/internal/gallager"
	"minroute/internal/linkcost"
	"minroute/internal/report"
	"minroute/internal/router"
	"minroute/internal/simpool"
	"minroute/internal/telemetry"
	"minroute/internal/topo"
	"minroute/internal/traffic"
)

// Settings scales the simulations. Full reproduces the paper-quality run;
// Quick is used by unit tests and CI-grade benchmarks.
type Settings struct {
	Warmup   float64
	Duration float64
	Seed     uint64
	// Runs averages each scheme over this many independent seeds
	// (Seed, Seed+1000, ...). Zero means one run. Single-path routing with
	// a delay metric is chaotic in the loaded regime, so the Tl-sweep
	// figures in particular benefit from averaging.
	Runs int
	// TelemetryDir, when non-empty, exports each simulation's telemetry
	// artifacts (JSONL event log and metrics snapshot) into this
	// directory under the prefix <figid>_<label>_s<seed>. Every artifact is
	// a deterministic function of the simulation, so the set of files is
	// byte-identical at any simpool worker count.
	TelemetryDir string
}

func (s Settings) runs() int {
	if s.Runs < 1 {
		return 1
	}
	return s.Runs
}

// Full is the paper-quality setting: the warmup spans several long-term
// (Tl) update periods so every scheme is measured at steady state, and
// every scheme is averaged over three seeds.
var Full = Settings{Warmup: 80, Duration: 60, Seed: 1, Runs: 3}

// Quick is a fast setting for tests and CI-grade benchmarks. It still
// allows ~4 Tl rounds of settling at Tl=10.
var Quick = Settings{Warmup: 40, Duration: 20, Seed: 1}

// scheme describes one simulated routing configuration: a column label, the
// forwarding mode with its two update intervals, and what only some columns
// need.
type scheme struct {
	label  string
	mode   router.Mode
	tl, ts float64
	// mutate, when set, edits the router configuration last (ablation knobs).
	mutate func(*router.Config)
	// source replaces the Poisson sources (the bursty figures).
	source func(f topo.Flow) traffic.Source
	// phi is the static routing a ModeStatic scheme evaluates (OPT).
	phi [][]alloc.Split
}

func (s scheme) options(set Settings) core.Options {
	opt := core.DefaultOptions()
	opt.Router.Mode = s.mode
	opt.Router.Tl = s.tl
	opt.Router.Ts = s.ts
	if s.mode == router.ModeSP {
		// SP has one clock (ts is MP's), and measures link delay over a
		// fixed 5 s window regardless of the update period, ARPANET-style,
		// so Tl sweeps vary staleness only (DESIGN.md §6.5). MP keeps the
		// paper's Tl-window costs.
		opt.Router.Ts = s.tl
		opt.Router.CostMeasureWindow = 5
	}
	if s.mutate != nil {
		s.mutate(&opt.Router)
	}
	opt.Seed = set.Seed
	opt.Warmup = set.Warmup
	opt.Duration = set.Duration
	opt.Source = s.source
	return opt
}

// drive advances one built network and reads off the vector its figure
// reports; see the package comment for what it may do.
type drive func(n *core.Network, run Settings) ([]float64, error)

// runChecked is the common drive step: warmup plus measurement, then the
// loop-freedom audit.
func runChecked(n *core.Network) (*core.Report, error) {
	rep := n.Run()
	return rep, n.CheckLoopFree()
}

// meanDelays is the drive of every per-flow delay figure.
func meanDelays(n *core.Network, _ Settings) ([]float64, error) {
	rep, err := runChecked(n)
	return rep.MeanDelayMs, err
}

// simulate runs every scheme on fresh copies of build's network, once per
// seed, and returns drive's vectors averaged across seeds, one per scheme.
// Each scheme is a coordinator task fanning its seeds onto the worker pool,
// so all of a figure's simulations share one bounded pool; each simulation
// is seeded exactly as in a serial harness and the results are reduced in
// seed order from indexed slots. A simulation's telemetry export runs as a
// coordinator task of its own once the simulation has given back its
// worker slot, so the next simulation runs while the artifacts are
// written; simulate joins the exports before it returns and reports a
// failed simulation ahead of a failed export, each kind by (scheme, seed)
// index, as it orders the warnings.
func simulate(id string, build func() *topo.Network, schemes []scheme, set Settings, d drive) ([][]float64, []string, error) {
	cols := make([][]float64, len(schemes))
	exports := simpool.Coordinator()
	exportErrs := make([]error, len(schemes)*set.runs())
	truncated := make([]string, len(schemes)*set.runs())
	g := simpool.Coordinator()
	for i, s := range schemes {
		g.Go(func() error {
			var err error
			cols[i], err = runSeeds(set, func(r int, run Settings) ([]float64, error) {
				out, n, err := s.run(build(), run, d)
				if err != nil {
					return nil, fmt.Errorf("experiments: %s %s: %w", id, s.label, err)
				}
				if run.TelemetryDir != "" {
					prefix := fmt.Sprintf("%s_%s_s%d", id, s.label, run.Seed)
					truncated[i*set.runs()+r] = n.Telemetry().Truncation(prefix)
					exports.Go(func() error {
						if err := n.ExportTelemetry(run.TelemetryDir, prefix); err != nil {
							exportErrs[i*set.runs()+r] = fmt.Errorf("experiments: %s %s: telemetry export: %w", id, s.label, err)
						}
						return nil
					})
				}
				return out, nil
			})
			return err
		})
	}
	err := g.Wait()
	exports.Wait()
	warnings := slices.DeleteFunc(truncated, func(w string) bool { return w == "" })
	return cols, warnings, cmp.Or(append([]error{err}, exportErrs...)...)
}

// run is one simulation: the scheme on tn at run's seed, driven by d. It
// returns the network too, for the telemetry export.
func (s scheme) run(tn *topo.Network, run Settings, d drive) ([]float64, *core.Network, error) {
	opt := s.options(run)
	if run.TelemetryDir != "" {
		opt.Telemetry = telemetry.NewCapture(tn.Graph.NumNodes())
	}
	n := core.Build(tn, opt)
	if s.phi != nil {
		n.InstallStatic(s.phi)
	}
	out, err := d(n, run)
	return out, n, err
}

// runSeeds fans one simulation per seed out onto the worker pool and
// averages the results element-wise in seed order. sim receives the run's
// index and the Settings with its seed already installed.
func runSeeds(set Settings, sim func(r int, run Settings) ([]float64, error)) ([]float64, error) {
	runs := set.runs()
	results := make([][]float64, runs)
	g := simpool.NewGroup()
	for r := 0; r < runs; r++ {
		g.Go(func() error {
			run := set
			run.Seed = set.Seed + uint64(r)*1000
			var err error
			results[r], err = sim(r, run)
			return err
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	var acc []float64
	for _, res := range results {
		acc = accumulate(acc, res)
	}
	return scaleSlice(acc, 1/float64(runs)), nil
}

// accumulate adds b into a element-wise, allocating on first use.
func accumulate(a, b []float64) []float64 {
	if a == nil {
		a = make([]float64, len(b))
	}
	for i := range b {
		a[i] += b[i]
	}
	return a
}

func scaleSlice(a []float64, f float64) []float64 {
	for i := range a {
		a[i] *= f
	}
	return a
}

// compare runs OPT (optionally) plus the listed schemes, all under the
// traffic sources src builds (nil: Poisson), and assembles the per-flow
// delay figure, adding the envelope column where the paper plots one.
func compare(id, title string, build func() *topo.Network, withOPT bool, envelope float64,
	schemes []scheme, set Settings, src func(f topo.Flow) traffic.Source) (*report.Figure, error) {

	net := build()
	var all []scheme
	if withOPT {
		// Gallager's minimum-delay routing is solved once on the fluid model
		// and its converged φ measured inside the same packet simulator as MP
		// and SP, so all schemes are observed identically.
		sol, err := gallager.Solve(net.Graph, net.Flows, gallager.Options{MeanPacketBits: linkcost.MeanPacketBits})
		if err != nil {
			return nil, fmt.Errorf("experiments: OPT solve: %w", err)
		}
		all = append(all, scheme{label: "OPT", mode: router.ModeStatic, phi: sol.Phi})
	}
	all = append(all, schemes...)
	for i := range all {
		all[i].source = src
	}
	fig := &report.Figure{ID: id, Title: title, Columns: labels(all)}
	cols, warnings, err := simulate(id, build, all, set, meanDelays)
	if err != nil {
		return nil, err
	}
	fig.Warnings = warnings
	if withOPT && envelope > 0 {
		env := make([]float64, len(cols[0]))
		for x, v := range cols[0] {
			env[x] = v * (1 + envelope)
		}
		fig.Columns = slices.Insert(fig.Columns, 1, fmt.Sprintf("OPT+%.0f%%", envelope*100))
		cols = slices.Insert(cols, 1, env)
	}
	flowRows(fig, net, cols)
	return fig, nil
}

// flowRows adds one row per flow of net, reading across the columns.
func flowRows(fig *report.Figure, net *topo.Network, cols [][]float64) {
	for x, f := range net.Flows {
		row := make([]float64, len(cols))
		for c := range cols {
			row[c] = cols[c][x]
		}
		fig.AddRow(fmt.Sprintf("%d:%s", x, f.Name), row...)
	}
}

// labels lists the schemes' column labels in order.
func labels(schemes []scheme) []string {
	out := make([]string, len(schemes))
	for i, s := range schemes {
		out[i] = s.label
	}
	return out
}

func mp(tl, ts float64) scheme {
	return scheme{label: fmt.Sprintf("MP-TL-%.0f-TS-%.0f", tl, ts), mode: router.ModeMP, tl: tl, ts: ts}
}

func sp(tl float64) scheme {
	return scheme{label: fmt.Sprintf("SP-TL-%.0f", tl), mode: router.ModeSP, tl: tl}
}

// as returns s relabelled, with mutate as its configuration edit.
func (s scheme) as(label string, mutate func(*router.Config)) scheme {
	s.label, s.mutate = label, mutate
	return s
}

// Fig9 — "Delays of OPT and MP in CAIRN": MP-TL-10-TS-2 against OPT and
// the paper's 5% envelope.
func Fig9(set Settings) (*report.Figure, error) {
	fig, err := compare("fig9", "Delays of OPT and MP in CAIRN", topoCAIRN, true, 0.05,
		[]scheme{mp(10, 2)}, set, nil)
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes, "paper: MP delays fall within the OPT+5% envelope")
	return fig, nil
}

// Fig10 — "Delays of OPT and MP in NET1" with the paper's 8% envelope.
func Fig10(set Settings) (*report.Figure, error) {
	fig, err := compare("fig10", "Delays of OPT and MP in NET1", topoNET1, true, 0.08,
		[]scheme{mp(10, 2)}, set, nil)
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes, "paper: MP delays fall within the OPT+8% envelope")
	return fig, nil
}

// Fig11 — "Delays of MP and SP in CAIRN": OPT, MP-TL-10-TS-10,
// MP-TL-10-TS-2, SP-TL-10.
func Fig11(set Settings) (*report.Figure, error) {
	fig, err := compare("fig11", "Delays of MP and SP in CAIRN", topoCAIRN, true, 0,
		[]scheme{mp(10, 10), mp(10, 2), sp(10)}, set, nil)
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes, "paper: SP delays are two to four times those of MP on some flows")
	return fig, nil
}

// Fig12 — "Delays of MP and SP in NET1": same columns as Fig11.
func Fig12(set Settings) (*report.Figure, error) {
	fig, err := compare("fig12", "Delays of MP and SP in NET1", topoNET1, true, 0,
		[]scheme{mp(10, 10), mp(10, 2), sp(10)}, set, nil)
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"paper: SP delays are as much as five to six times those of MP (higher connectivity)")
	return fig, nil
}

// Fig13 — effect of the long-term interval Tl in CAIRN: Tl 10 -> 20 with
// Ts fixed. The paper: SP delays more than double; MP barely changes.
func Fig13(set Settings) (*report.Figure, error) {
	fig, err := compare("fig13", "Effect of Tl in CAIRN (Tl 10 vs 20)", topoCAIRN, false, 0,
		[]scheme{mp(10, 2), mp(20, 2), sp(10), sp(20)}, set, nil)
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"paper: raising Tl from 10 to 20 more than doubles SP delays; MP remains relatively unchanged")
	return fig, nil
}

// Fig14 — effect of Tl in NET1 (same sweep as Fig13).
func Fig14(set Settings) (*report.Figure, error) {
	fig, err := compare("fig14", "Effect of Tl in NET1 (Tl 10 vs 20)", topoNET1, false, 0,
		[]scheme{mp(10, 2), mp(20, 2), sp(10), sp(20)}, set, nil)
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"paper: SP delays increase significantly with Tl; MP shows negligible change")
	return fig, nil
}

// burstySource builds the on-off sources of the dynamic experiments.
func burstySource(f topo.Flow) traffic.Source {
	return traffic.OnOff{RateBits: f.Rate, MeanPacketBits: linkcost.MeanPacketBits, PeakFactor: 4, MeanOn: 0.25}
}

// Fig15 — dynamic (bursty) traffic in CAIRN (reconstructed; the provided
// paper text truncates before this experiment): MP vs SP under on-off
// sources with the same average rates as the stationary runs.
func Fig15(set Settings) (*report.Figure, error) {
	fig, err := compare("fig15", "Dynamic (bursty) traffic in CAIRN (reconstructed)", topoCAIRN, false, 0,
		[]scheme{mp(10, 2), sp(10)}, set, burstySource)
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"reconstructed: under short bursts MP's local load balancing absorbs what SP cannot")
	return fig, nil
}

// Fig16 — dynamic (bursty) traffic in NET1 (reconstructed).
func Fig16(set Settings) (*report.Figure, error) {
	fig, err := compare("fig16", "Dynamic (bursty) traffic in NET1 (reconstructed)", topoNET1, false, 0,
		[]scheme{mp(10, 2), sp(10)}, set, burstySource)
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"reconstructed: under short bursts MP's local load balancing absorbs what SP cannot")
	return fig, nil
}

func topoCAIRN() *topo.Network { return topo.CAIRN() }
func topoNET1() *topo.Network  { return topo.NET1() }

// All maps figure IDs to their generators.
var All = map[string]func(Settings) (*report.Figure, error){
	"fig9":  Fig9,
	"fig10": Fig10,
	"fig11": Fig11,
	"fig12": Fig12,
	"fig13": Fig13,
	"fig14": Fig14,
	"fig15": Fig15,
	"fig16": Fig16,
}

// IDs lists the figure identifiers in presentation order.
var IDs = []string{"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16"}
