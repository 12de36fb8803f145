package chaos

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"minroute/internal/alloc"
	"minroute/internal/core"
	"minroute/internal/graph"
	"minroute/internal/oracle"
	"minroute/internal/router"
	"minroute/internal/telemetry"
	"minroute/internal/topo"
)

// desConfig is the router configuration chaos runs use: the paper's MP mode
// with shorter horizons (Tl=4, Ts=1) so allocation steps and long-term
// route changes actually occur inside scenario-length (≈10 s) runs.
func desConfig() router.Config {
	cfg := router.Defaults()
	cfg.Tl = 4
	cfg.Ts = 1
	return cfg
}

// RunDES executes the scenario in the packet simulator: real traffic, real
// queues, actions scheduled at their At coordinates, and three always-on
// oracles wired into the event loop — traffic conservation after every
// event, the φ-simplex invariant after every IH/AH step, and loop-freedom
// of the live successor graph after every event that changed an allocation.
// Convergence is not checked here: under flowing traffic the link costs
// never quiesce, so Theorem 4's premise never holds (the protocol-level
// runner checks it at true quiescence instead).
func RunDES(s *Scenario) (*Result, error) { return RunDESWith(s, nil) }

// RunDESWith is RunDES with an optional telemetry capture wired through
// core.Build: the run's full event timeline (control and data planes plus
// the injected faults) lands in tel for export.
func RunDESWith(s *Scenario, tel *telemetry.Capture) (*Result, error) {
	tn, dur, err := desNetwork(s)
	if err != nil {
		return nil, err
	}
	n := desBuild(tn, s, dur, tel, 0, 0)

	log := oracle.NewLog()
	var trace strings.Builder
	fmt.Fprintf(&trace, "scenario %s topo=%s seed=%d des dur=%g\n", s.Name, s.Topo, s.Seed, dur)

	// φ-simplex after every IH/AH step, and a dirty mark that triggers the
	// loop-freedom audit once the surrounding event finishes.
	dirty := false
	for _, id := range tn.Graph.Nodes() {
		node := n.Nodes[id]
		node.OnAlloc = func(j graph.NodeID, phi alloc.Params, succ []graph.NodeID) {
			dirty = true
			log.Record(oracle.CheckSimplexName)
			if err := oracle.Simplex(phi, succ); err != nil {
				log.Violate(oracle.CheckSimplexName, err.Error(), n.Eng.EventsFired(), n.Eng.Now())
			}
		}
	}

	n.Eng.OnEvent = func() {
		checkConservation(n, log, n.Eng.EventsFired(), n.Eng.Now())
		if dirty {
			dirty = false
			checkLoopFree(n, log, n.Eng.EventsFired(), n.Eng.Now())
		}
	}

	// Fault schedule: each action is an engine event at its At coordinate.
	for _, act := range dueActions(s, dur, &trace) {
		act := act
		n.Eng.Schedule(act.At, func() {
			fmt.Fprintf(&trace, "apply %s t=%.6f event=%d\n", act, n.Eng.Now(), n.Eng.EventsFired())
			applyDES(n, act)
			checkAdjacency(n, log, n.Eng.EventsFired(), n.Eng.Now())
		})
	}

	n.Start()
	n.BeginMeasurement()
	n.Eng.Run(dur)

	finalSweep(n, log, n.Eng.EventsFired(), n.Eng.Now())

	writeDESReport(&trace, n, n.Eng.EventsFired())
	res := &Result{Log: log, Events: n.Eng.EventsFired()}
	res.Trace, res.TraceHash = finishTrace(&trace, log)
	return res, nil
}

// RunDESShardedWith is RunDESWith partitioned across engine shards (see
// internal/despart). The oracles run at the window barriers, the only
// moments all shard clocks agree, so its trace hash differs from RunDES's by
// design. It pins partition-independence instead: the trace and any capture
// are byte-identical at every shard count, because the barrier cadence comes
// from the global minimum propagation delay and fault actions apply at
// barriers with deterministic merged event counts.
func RunDESShardedWith(s *Scenario, shards int, tel *telemetry.Capture) (*Result, error) {
	tn, dur, err := desNetwork(s)
	if err != nil {
		return nil, err
	}
	// The window is the minimum propagation delay over all links, not just
	// cross-shard ones: a valid lookahead for every partition that makes the
	// barrier schedule — check counts, apply times — shard-count invariant.
	window := math.Inf(1)
	for _, l := range tn.Graph.Links() {
		if l.PropDelay < window {
			window = l.PropDelay
		}
	}
	if !(window > 0) || math.IsInf(window, 1) {
		return nil, fmt.Errorf("chaos: scenario %s has no positive-delay links to derive a shard window", s.Name)
	}
	n := desBuild(tn, s, dur, tel, shards, window)

	log := oracle.NewLog()
	var trace strings.Builder
	// The header deliberately omits the shard count: hashes must compare
	// equal across shard counts.
	fmt.Fprintf(&trace, "scenario %s topo=%s seed=%d des-sharded dur=%g window=%g\n",
		s.Name, s.Topo, s.Seed, dur, window)

	// The merged event count: every shard's engine events plus the fault
	// actions (events in the serial runner, applied outside any engine
	// here). Read only at barriers, where it is deterministic.
	var actionsFired int64
	events := func() int64 {
		t := actionsFired
		for _, e := range n.Engines() {
			t += e.EventsFired()
		}
		return t
	}

	// The φ-simplex oracle fires in OnAlloc on the owning shard's goroutine
	// mid-window, so each router records into its own slot. The barrier
	// merges the slots into the log in ascending router order, stamping
	// violations with the router's clock at the time and the merged count.
	type simplexViol struct {
		msg string
		t   float64
	}
	numNodes := tn.Graph.NumNodes()
	simplexRuns := make([]int64, numNodes)
	simplexViols := make([][]simplexViol, numNodes)
	dirty := make([]bool, numNodes)
	for _, id := range tn.Graph.Nodes() {
		node := n.Nodes[id]
		slot := int(id)
		eng := n.EngineOf(id)
		node.OnAlloc = func(j graph.NodeID, phi alloc.Params, succ []graph.NodeID) {
			simplexRuns[slot]++
			dirty[slot] = true
			if err := oracle.Simplex(phi, succ); err != nil {
				simplexViols[slot] = append(simplexViols[slot], simplexViol{err.Error(), eng.Now()})
			}
		}
	}

	barrier := func(t float64) {
		ev := events()
		for id := 0; id < numNodes; id++ {
			for ; simplexRuns[id] > 0; simplexRuns[id]-- {
				log.Record(oracle.CheckSimplexName)
			}
			for _, v := range simplexViols[id] {
				log.Violate(oracle.CheckSimplexName, v.msg, ev, v.t)
			}
			simplexViols[id] = simplexViols[id][:0]
		}
		checkConservation(n, log, ev, t)
		wasDirty := false
		for id := range dirty {
			if dirty[id] {
				wasDirty = true
				dirty[id] = false
			}
		}
		if wasDirty {
			checkLoopFree(n, log, ev, t)
		}
	}

	// Fault schedule: actions apply at the first barrier at or past their At
	// coordinate, single-threaded with every shard clock equal.
	acts := dueActions(s, dur, &trace)
	ai := 0
	applyDue := func(t float64) {
		for ai < len(acts) && acts[ai].At <= t {
			act := acts[ai]
			ai++
			actionsFired++
			fmt.Fprintf(&trace, "apply %s t=%.6f event=%d\n", act, t, events())
			applyDES(n, act)
			checkAdjacency(n, log, events(), t)
		}
	}

	n.Start()
	n.BeginMeasurement()
	for now := 0.0; now < dur; {
		next := now + window
		if next > dur {
			next = dur
		}
		n.RunUntil(next)
		applyDue(next)
		barrier(next)
		now = next
	}

	finalSweep(n, log, events(), dur)

	writeDESReport(&trace, n, events())
	res := &Result{Log: log, Events: events()}
	res.Trace, res.TraceHash = finishTrace(&trace, log)
	return res, nil
}

// desNetwork validates the scenario and returns its network and run length
// (10 s when the scenario names none).
func desNetwork(s *Scenario) (*topo.Network, float64, error) {
	if err := s.Validate(); err != nil {
		return nil, 0, err
	}
	tn, err := s.Network()
	if err != nil {
		return nil, 0, err
	}
	dur := s.Duration
	if dur <= 0 {
		dur = 10
	}
	return tn, dur, nil
}

// desBuild assembles the scenario's network for either DES runner (serial
// with shards = 0).
func desBuild(tn *topo.Network, s *Scenario, dur float64, tel *telemetry.Capture, shards int, window float64) *core.Network {
	return core.Build(tn, core.Options{
		Router: desConfig(), Seed: s.Seed, Duration: dur, Telemetry: tel,
		Shards: shards, ShardWindow: window,
	})
}

// finalSweep ends either DES run: the loop-freedom audit regardless of the
// dirty marks, the adjacency audit, and the conservation ledger one last
// time.
func finalSweep(n *core.Network, log *oracle.Log, event int64, t float64) {
	checkLoopFree(n, log, event, t)
	checkAdjacency(n, log, event, t)
	checkConservation(n, log, event, t)
}

// checkConservation balances the network's data-packet ledger.
func checkConservation(n *core.Network, log *oracle.Log, event int64, t float64) {
	log.Record(oracle.CheckConservationName)
	if err := oracle.Conservation(ledger(n)); err != nil {
		log.Violate(oracle.CheckConservationName, err.Error(), event, t)
	}
}

// checkLoopFree audits the successor graph of the routers that are up.
func checkLoopFree(n *core.Network, log *oracle.Log, event int64, t float64) {
	log.Record(oracle.CheckLoopFreeName)
	if err := oracle.LoopFree(n.Graph.NumNodes(), n.LiveViews()); err != nil {
		log.Violate(oracle.CheckLoopFreeName, err.Error(), event, t)
	}
}

// checkAdjacency audits every live router's adjacent-link table against
// core's effective link state. It runs after each applied action and once
// at the end of the run: link events reach both endpoints synchronously,
// so nothing in between can break the agreement.
func checkAdjacency(n *core.Network, log *oracle.Log, event int64, t float64) {
	var live []oracle.AdjacencyView
	for _, id := range n.Graph.Nodes() {
		if node := n.Nodes[id]; !node.Down() {
			live = append(live, node.Protocol().Tables())
		}
	}
	log.Record(oracle.CheckAdjacencyName)
	if err := oracle.Adjacency(live, n.LinkUp); err != nil {
		log.Violate(oracle.CheckAdjacencyName, err.Error(), event, t)
	}
}

// dueActions returns the scenario's actions in stable At order, leaving out
// (and noting in the trace) those past the end of the run.
func dueActions(s *Scenario, dur float64, trace *strings.Builder) []Action {
	acts := append([]Action(nil), s.Actions...)
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].At < acts[j].At })
	due := acts[:0]
	for _, act := range acts {
		if act.At > dur {
			fmt.Fprintf(trace, "skip %s at=%g beyond duration\n", act, act.At)
			continue
		}
		due = append(due, act)
	}
	return due
}

// applyDES applies one scenario action to a simulated network. core.Network
// keeps the effective link state itself (core.LinkUp), so any action order
// is valid as given.
func applyDES(n *core.Network, act Action) {
	switch act.Kind {
	case KindFail:
		n.FailLink(act.A, act.B)
	case KindRestore:
		n.RestoreLink(act.A, act.B)
	case KindCost:
		// In the packet simulator a cost spike is a capacity drop below the
		// topology's figure: the protocol sees it through its own measured
		// link costs. Core never originates this fault, so mark it here.
		n.MarkFault(true, fmt.Sprintf("cost %d-%d x%g", act.A, act.B, act.Factor))
		for _, pair := range [][2]graph.NodeID{{act.A, act.B}, {act.B, act.A}} {
			if l, ok := n.Graph.Link(pair[0], pair[1]); ok {
				n.Ports[pair].Capacity = l.Capacity / act.Factor
			}
		}
	case KindCrash:
		n.CrashNode(act.Node)
	case KindRestart:
		n.RestartNode(act.Node)
	case KindPerturb:
		// No-op: the simulator's control band is lossless by construction,
		// implementing the paper's reliable-delivery assumption. The
		// protocol-level runner exercises perturbation instead.
	}
}

// ledger takes the instantaneous packet census of the network.
func ledger(n *core.Network) oracle.Ledger {
	var led oracle.Ledger
	for x := range n.Flows {
		led.Offered += n.SentPackets[x]
		led.Delivered += n.Delivered(x)
	}
	for _, id := range n.Graph.Nodes() {
		node := n.Nodes[id]
		led.RouterDrops += node.DroppedNoRoute + node.DroppedHopLimit + node.DroppedQueue + node.DroppedDown
	}
	for _, l := range n.Graph.Links() {
		p := n.Ports[[2]graph.NodeID{l.From, l.To}]
		led.PortLost += p.LostData()
		led.InFlight += int64(p.InFlightDataPackets())
	}
	return led
}

func writeDESReport(trace *strings.Builder, n *core.Network, events int64) {
	rep := n.Report()
	for x := range rep.FlowNames {
		fmt.Fprintf(trace, "flow %s delivered %d offered %d mean %.6f\n",
			rep.FlowNames[x], rep.Delivered[x], rep.Offered[x], rep.MeanDelayMs[x])
	}
	fmt.Fprintf(trace, "drops noroute=%d hoplimit=%d queue=%d control=%d events=%d\n",
		rep.DropsNoRoute, rep.DropsHopLimit, rep.DropsQueue, rep.ControlMessages, events)
}
