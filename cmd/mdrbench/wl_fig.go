package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"minroute/internal/core"
	"minroute/internal/experiments"
	"minroute/internal/gallager"
	"minroute/internal/report"
	"minroute/internal/router"
	"minroute/internal/simpool"
	"minroute/internal/telemetry"
	"minroute/internal/topo"
)

// mpColumn is the scheme whose column the fig workloads report as
// delay_ms_mean: the paper's headline configuration.
const mpColumn = "MP-TL-10-TS-2"

// figSettings are the figure settings of one run: experiments.Quick with
// the run's seed, or a few simulated seconds for a smoke run.
func figSettings(c *runCtx) experiments.Settings {
	set := experiments.Quick
	if c.quick {
		set.Warmup, set.Duration = 0.2, 0.2
	}
	set.Seed = c.seed
	return set
}

// shadow is one simulation a figure runs, rebuilt by the harness from
// public core/router/gallager calls so its event, packet and LSU counts
// can be read — experiments.* returns only the delay table. uses is how
// many of the three figures' simulations it stands for. Each shadow's
// per-flow delays are checked bit-for-bit against the figure column it
// mirrors, so the counts provably belong to the computation that was timed.
type shadow struct {
	label  string
	mode   router.Mode
	tl, ts float64
	uses   int
}

// net1Shadows lists the distinct simulations behind fig10, fig12 and fig14:
// fig10 = OPT + MP(10,2); fig12 = OPT + MP(10,10) + MP(10,2) + SP(10);
// fig14 = MP(10,2) + MP(20,2) + SP(10) + SP(20).
var net1Shadows = []shadow{
	{mpColumn, router.ModeMP, 10, 2, 3},
	{"OPT", router.ModeStatic, 0, 0, 2},
	{"MP-TL-10-TS-10", router.ModeMP, 10, 10, 1},
	{"SP-TL-10", router.ModeSP, 10, 10, 2},
	{"MP-TL-20-TS-2", router.ModeMP, 20, 2, 1},
	{"SP-TL-20", router.ModeSP, 20, 20, 1},
}

// options mirrors the private experiments.scheme.options.
func (s shadow) options(set experiments.Settings) core.Options {
	opt := core.DefaultOptions()
	opt.Router.Mode = s.mode
	opt.Router.Tl = s.tl
	opt.Router.Ts = s.ts
	if s.mode == router.ModeSP {
		opt.Router.CostMeasureWindow = 5
	}
	opt.Seed = set.Seed
	opt.Warmup = set.Warmup
	opt.Duration = set.Duration
	return opt
}

// simRun is one harness-driven simulation and what the ledger needs of it.
type simRun struct {
	report *core.Report
	runS   float64
	counts ledgerCounts
}

// runSim drives sim to completion under spans and audits loop-freedom.
func runSim(c *runCtx, rec *recorder, sim *core.Network) simRun {
	var out simRun
	rec.do("core.run", func() {
		out.runS = timeIt(func() { out.report = sim.Run() })
	})
	rec.do("core.check_loop_free", func() {
		c.check("core.CheckLoopFree", sim.CheckLoopFree())
	})
	out.counts = simCounts(sim, out.report)
	return out
}

// simCounts reads the public counters the ledger multiplies by probe costs.
func simCounts(sim *core.Network, r *core.Report) ledgerCounts {
	var lc ledgerCounts
	for _, e := range sim.Engines() {
		lc.events += float64(e.EventsFired())
	}
	var forwarded, delivered int64
	for _, n := range sim.Nodes {
		forwarded += n.ForwardedPackets
	}
	for _, d := range r.Delivered {
		delivered += d
	}
	lc.lsus = float64(sim.ControlMessages())
	lc.mtuRuns = lc.lsus // the simulator's routers are not the harness's to wrap
	lc.traversals = float64(forwarded) + lc.lsus
	lc.dataHandled = float64(forwarded + delivered)
	lc.delivered = float64(delivered)
	return lc
}

func hashReport(d *digest, r *core.Report) {
	d.str(r.String())
	d.floats(r.MeanDelayMs...)
	d.ints(r.Delivered...)
	d.ints(r.Offered...)
	d.ints(r.ControlMessages, int64(r.MaxHops))
}

func hashFigure(d *digest, f *report.Figure) {
	d.str(f.ID)
	for _, col := range f.Columns {
		d.str(col)
	}
	for _, row := range f.Data {
		d.floats(row...)
	}
}

// columnOf returns the index of the column labelled name, or -1.
func columnOf(f *report.Figure, name string) int {
	for i, col := range f.Columns {
		if col == name {
			return i
		}
	}
	return -1
}

// sameFloats reports bit-for-bit equality.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// scratchDir makes a fresh directory under the working directory — the
// benchmark may write nowhere else — and returns it with its remover.
func scratchDir() (string, func(), error) {
	if err := os.MkdirAll(".mdrbench_tmp", 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(".mdrbench_tmp", "run-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() {
		os.RemoveAll(dir)
		os.Remove(".mdrbench_tmp") // succeeds only once the last run's directory is gone
	}, nil
}

// hashDir digests the files of dir by name and content.
func hashDir(d *digest, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		blob, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		d.str(name)
		d.str(string(blob))
	}
	return nil
}

// figRep is one repetition of a figure workload: the figures through
// experiments.All, then the harness's shadow simulations for the counts.
// With telemetry set the figures export their three artifacts per
// simulation and the shadow carries a capture of its own.
func figRep(c *runCtx, rec *recorder, ids []string, withTelemetry bool) repOut {
	simpool.SetWorkers(1)
	set := figSettings(c)
	out := repOut{layer: make(map[string]float64)}
	var d digest

	// Set-up: what must exist before a figure can run — the topology, the
	// demands, and one assembled network (the first shadow's).
	shadows := net1Shadows
	if !c.trace {
		shadows = shadows[:1] // the ledger is a traced-run product; untraced runs need only the headline column
	}
	var capture *telemetry.Capture
	first, setupS := timeSetup(func() (sim *core.Network) {
		tn := topo.NET1()
		opt := shadows[0].options(set)
		if withTelemetry {
			capture = telemetry.NewCapture(tn.Graph.NumNodes())
			opt.Telemetry = capture
		}
		rec.do("core.build", func() { sim = core.Build(tn, opt) })
		return sim
	}, nil)
	out.setupS = setupS

	telSet := set
	if withTelemetry {
		dir, cleanup, err := scratchDir()
		c.check("telemetry scratch directory", err)
		if err != nil {
			return out
		}
		defer cleanup()
		telSet.TelemetryDir = dir
	}

	figs := make(map[string]*report.Figure, len(ids))
	for _, id := range ids {
		var fig *report.Figure
		var err error
		var figS float64
		rec.do("experiments."+id, func() {
			figS = timeIt(func() { fig, err = experiments.All[id](telSet) })
		})
		c.check("experiments."+id, err)
		if err != nil {
			return out
		}
		out.wallS += figS
		out.layer["experiments."+id+"_s"] = figS
		figs[id] = fig
		hashFigure(&d, fig)
	}
	if withTelemetry {
		c.check("telemetry artifacts", hashDir(&d, telSet.TelemetryDir))
	}

	// Shadow simulations. The first gives the workload's event rate, loss
	// and LSU count; under tracing the rest complete the ledger's counts.
	var gallagerS float64
	for i, s := range shadows {
		sim := first
		if i > 0 {
			tn := topo.NET1()
			rec.do("core.build", func() { sim = core.Build(tn, s.options(set)) })
			if s.mode == router.ModeStatic {
				var sol *gallager.Result
				var err error
				rec.do("gallager.solve", func() {
					gallagerS = timeIt(func() {
						sol, err = gallager.Solve(tn.Graph, tn.Flows, gallager.Options{MeanPacketBits: 8000})
					})
				})
				c.check("gallager.Solve", err)
				if err != nil {
					return out
				}
				sim.InstallStatic(sol.Phi)
			}
		}
		run := runSim(c, rec, sim)
		checkShadow(c, s, run.report, figs)
		out.counts.add(run.counts.times(float64(s.uses)))
		if i == 0 {
			hashReport(&d, run.report)
			out.events, out.eventsS = run.counts.events, run.runS
			out.delivery = 1 - run.report.LossRate()
			out.layer["loss_ratio"] = run.report.LossRate()
			out.layer["lsu_msgs"] = run.counts.lsus
			out.layer["core.control_msgs"] = run.counts.lsus
			out.layer["core.packets_delivered"] = run.counts.delivered
			out.layer["des.events"] = run.counts.events
			out.layer["des.ns_per_event"] = run.runS * 1e9 / run.counts.events
			if capture != nil {
				var err error
				rec.do("telemetry.export", func() {
					out.layer["telemetry.export_s"] = timeIt(func() {
						err = sim.ExportTelemetry(telSet.TelemetryDir, "shadow")
					})
				})
				c.check("core.ExportTelemetry", err)
				out.layer["telemetry.events_emitted"] = float64(capture.Trace.Emitted())
				out.layer["telemetry.events_dropped"] = float64(capture.Trace.Dropped())
			}
		}
	}
	out.counts.gallagerS = gallagerS * 2 // fig10 and fig12 each solve OPT once
	out.counts.shape = "n10"

	// The headline column comes from the figure that has it last in ids.
	for _, id := range ids {
		if col := columnOf(figs[id], mpColumn); col >= 0 {
			out.delayMs = figs[id].ColumnMean(col)
		}
	}
	if f := figs["fig10"]; f != nil {
		out.layer["mp_over_opt"] = meanRatio(f, columnOf(f, mpColumn), columnOf(f, "OPT"))
	}
	if rec != nil {
		out.layer["core.build_s"] = median(rec.durations("core.build"))
		out.layer["core.run_s"] = rec.total("core.run")
		out.layer["core.check_loop_free_s"] = rec.total("core.check_loop_free")
	}
	out.hash = d.sum()
	return out
}

// checkShadow counts one operation per figure column the shadow mirrors
// and fails it unless the delays agree to the last bit.
func checkShadow(c *runCtx, s shadow, r *core.Report, figs map[string]*report.Figure) {
	for _, id := range sortedNames(figs) {
		f := figs[id]
		col := columnOf(f, s.label)
		if col < 0 {
			continue
		}
		c.op(1)
		if !sameFloats(f.Column(col), r.MeanDelayMs) {
			c.failf("%s column %s differs from the harness's rebuild of that simulation", id, s.label)
		}
	}
}

// meanRatio is the mean over rows of column a divided by column b.
func meanRatio(f *report.Figure, a, b int) float64 {
	if a < 0 || b < 0 {
		return math.NaN()
	}
	rs := f.Ratio(a, b)
	sum := 0.0
	for _, r := range rs {
		sum += r
	}
	return sum / float64(len(rs))
}

func figNet1Rep(c *runCtx, rec *recorder) repOut {
	out := figRep(c, rec, []string{"fig10", "fig12", "fig14"}, false)
	if rec != nil && out.hash != "" {
		out.layer["simpool.speedup_wN"] = simpoolSpeedup(c, out.layer["experiments.fig14_s"])
	}
	return out
}

// simpoolSpeedup reruns fig14 with one simpool worker per processor and
// returns serial time over parallel time. The figure must not change.
func simpoolSpeedup(c *runCtx, serialS float64) float64 {
	simpool.SetWorkers(runtime.NumCPU())
	defer simpool.SetWorkers(1)
	var err error
	parS := timeIt(func() { _, err = experiments.Fig14(figSettings(c)) })
	c.check("experiments.fig14 at workers=nproc", err)
	return serialS / parS
}

func figNet1TelRep(c *runCtx, rec *recorder) repOut {
	out := figRep(c, rec, []string{"fig14"}, true)
	if rec != nil && out.hash != "" {
		// The disabled path's cost of the same figure, for the ratio.
		var err error
		plainS := timeIt(func() { _, err = experiments.Fig14(figSettings(c)) })
		c.check("experiments.fig14 without telemetry", err)
		out.layer["telemetry.overhead_ratio"] = out.wallS / plainS
	}
	return out
}
