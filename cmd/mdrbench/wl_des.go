package main

import (
	"minroute/internal/core"
	"minroute/internal/topo"
)

// structureSeed generates the scale-free topologies and their demands.
// They are part of a workload's definition, as NET1 is of fig-net1's: the
// run's seed drives every stochastic process on top of them (arrivals,
// timer phases, delivery interleaving, link events, faults), but drawing a
// new hub structure per seed moves the work by ±30 %, which would drown
// the 10 % regression bound in input variance.
const structureSeed = 1

// scaleFree returns the sfN topology: 2 links per new router, 10 Mb/s,
// propagation delays up to 2 ms.
func scaleFree(n int) *topo.Network {
	return &topo.Network{Graph: topo.ScaleFree(structureSeed, n, 2, 10*topo.Mb, 2e-3)}
}

// desOptions is the des-sf160 schedule: 2 s warm-up + 8 s measured is one
// full Tl period, so every router makes exactly one long-term update
// whatever phase its seed-drawn timer has.
func desOptions(c *runCtx, shards int) core.Options {
	opt := core.DefaultOptions()
	opt.Seed = c.seed
	opt.Warmup, opt.Duration = 2, 8
	if c.quick {
		opt.Warmup, opt.Duration = 0.25, 0.5
	}
	opt.Shards = shards
	return opt
}

func desNetwork(c *runCtx) *topo.Network {
	tn := scaleFree(c.pick(160, 24))
	tn.Flows = topo.SynthFlows(structureSeed, tn.Graph, c.pick(64, 8), 0.25*topo.Mb, 0.75*topo.Mb)
	return tn
}

func desRep(c *runCtx, rec *recorder) repOut {
	out := repOut{layer: make(map[string]float64)}
	sim, setupS := timeSetup(func() (sim *core.Network) {
		tn := desNetwork(c)
		rec.do("core.build", func() { sim = core.Build(tn, desOptions(c, 1)) })
		return sim
	}, nil)
	out.setupS = setupS
	run := runSim(c, rec, sim)

	var d digest
	hashReport(&d, run.report)
	out.hash = d.sum()
	out.wallS = run.runS
	out.events, out.eventsS = run.counts.events, run.runS
	out.delayMs = run.report.AvgMeanDelayMs()
	out.delivery = 1 - run.report.LossRate()
	out.counts = run.counts
	out.counts.shape = "n160"
	out.layer["loss_ratio"] = run.report.LossRate()
	out.layer["lsu_msgs"] = run.counts.lsus
	out.layer["core.control_msgs"] = run.counts.lsus
	out.layer["core.packets_delivered"] = run.counts.delivered
	out.layer["des.events"] = run.counts.events
	out.layer["des.ns_per_event"] = run.runS * 1e9 / run.counts.events
	if rec != nil {
		out.layer["core.build_s"] = median(rec.durations("core.build"))
		out.layer["core.run_s"] = rec.total("core.run")
		out.layer["core.check_loop_free_s"] = rec.total("core.check_loop_free")
		desSharded(c, &out)
	}
	return out
}

// desSharded repeats the run on two event-engine shards. The report must
// be identical to the serial one; the time ratio is what two shards buy on
// this host.
func desSharded(c *runCtx, serial *repOut) {
	sim := core.Build(desNetwork(c), desOptions(c, 2))
	var rep *core.Report
	shardedS := timeIt(func() { rep = sim.Run() })
	c.check("core.CheckLoopFree at 2 shards", sim.CheckLoopFree())
	var d digest
	hashReport(&d, rep)
	identical := d.sum() == serial.hash
	c.op(1)
	if !identical {
		c.failf("report at 2 shards differs from the serial report")
	}
	serial.layer["despart.identical"] = b2f(identical)
	serial.layer["despart.speedup_s2"] = serial.wallS / shardedS
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
