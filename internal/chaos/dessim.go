package chaos

import (
	"fmt"
	"sort"
	"strings"

	"minroute/internal/alloc"
	"minroute/internal/core"
	"minroute/internal/graph"
	"minroute/internal/oracle"
	"minroute/internal/router"
	"minroute/internal/telemetry"
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
	if err := s.Validate(); err != nil {
		return nil, err
	}
	tn, err := s.Network()
	if err != nil {
		return nil, err
	}
	dur := s.Duration
	if dur <= 0 {
		dur = 10 // the scenario names no run length
	}
	n := core.Build(tn, core.Options{Router: desConfig(), Seed: s.Seed, Duration: dur, Telemetry: tel})

	log := oracle.NewLog()
	var trace strings.Builder
	fmt.Fprintf(&trace, "scenario %s topo=%s seed=%d des dur=%g\n", s.Name, s.Topo, s.Seed, dur)

	// φ-simplex after every IH/AH step, and a dirty mark that triggers the
	// loop-freedom audit once the surrounding event finishes.
	dirty := false
	for _, id := range tn.Graph.Nodes() {
		node := n.Nodes[id]
		node.OnAlloc = func(j graph.NodeID, phi alloc.Split, succ []graph.NodeID) {
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

// finalSweep ends the DES run: the loop-freedom audit regardless of the
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
