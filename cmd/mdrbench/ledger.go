package main

// ledgerCounts are the calls a repetition made into each layer, read from
// the program's existing public counters (or, for mpda, observed by the
// harness's own wrapper), plus the two layers the harness can time whole.
type ledgerCounts struct {
	// events: DES events fired. traversals: packets (data and LSU) put on
	// a link. dataHandled: router.HandleData calls. delivered: data packets
	// that reached their destination. lsus: LSU messages processed.
	// mtuRuns: how many of those ran the MTU; known exactly where the
	// harness wraps the routers, otherwise taken to be all of them.
	events, traversals, dataHandled, delivered, lsus, mtuRuns float64
	// gallagerS is host time inside gallager.Solve; mpdaBusyS host time
	// inside mpda.Router calls (traced repetitions only).
	gallagerS, mpdaBusyS float64
	// shape names the probes whose table size and queue depth match the
	// workload's routers: "n10" (NET1) or "n160" (scale-free).
	shape string
}

func (a *ledgerCounts) add(b ledgerCounts) {
	a.events += b.events
	a.traversals += b.traversals
	a.dataHandled += b.dataHandled
	a.delivered += b.delivered
	a.lsus += b.lsus
	a.mtuRuns += b.mtuRuns
}

func (a ledgerCounts) times(k float64) ledgerCounts {
	a.events *= k
	a.traversals *= k
	a.dataHandled *= k
	a.delivered *= k
	a.lsus *= k
	a.mtuRuns *= k
	return a
}

// ledger reconciles counted calls × probed per-call cost against the
// workload's wall time. The shares are estimates by construction: a probe
// prices a call on inputs of the workload's shape, not on the workload's
// own inputs.
//
//   - des: every link traversal at the link-pipeline probe's price, which
//     includes the traversal's own two queue operations.
//   - eventq: the remaining events (timers, sources) at the push/pop price
//     for a queue as deep as the workload's.
//   - router: every HandleData call at its probe's price.
//   - pda: every LSU at the ApplyLSU price plus every MTU run at the RunMTU
//     price, on tables of the workload's size. Where the harness cannot see
//     which LSUs reached the MTU (inside the simulator) it assumes all did,
//     so the figure is an upper estimate there; and on the cold-start flood
//     the tables are small for most of the run while the probe's are full,
//     so it overshoots there too.
//   - mpda: measured, not estimated — the wrapper's busy time over wall
//     time — on the protonet workloads, where pda is a part of it.
//   - gallager: measured, the Solve calls' own time.
//
// What no row explains is unattributed_share (mpda standing in for pda
// where it was measured); it goes negative when the estimates overshoot.
func ledger(base, traced repOut, m map[string]float64) map[string]float64 {
	wall := base.wallS
	lc := base.counts
	ns := func(name string) float64 { return m[name] * 1e-9 }
	pushPop, applyLSU := ns("eventq.push_pop_ns"), ns("pda.apply_lsu_ns")
	if lc.shape == "n10" {
		pushPop, applyLSU = ns("eventq.push_pop_ns_d64"), ns("pda.apply_lsu_ns_n10")
	}
	timerEvents := lc.events - 2*lc.traversals
	if timerEvents < 0 {
		timerEvents = 0
	}
	out := map[string]float64{
		"ledger.eventq_share":   timerEvents * pushPop / wall,
		"ledger.des_share":      lc.traversals * ns("des.link_pipeline_ns") / wall,
		"ledger.router_share":   lc.dataHandled * ns("router.handle_data_ns") / wall,
		"ledger.pda_share":      (lc.lsus*applyLSU + lc.mtuRuns*m["pda.run_mtu_us_"+lc.shape]*1e-6) / wall,
		"ledger.gallager_share": lc.gallagerS / wall,
	}
	control := out["ledger.pda_share"]
	if traced.counts.mpdaBusyS > 0 {
		out["ledger.mpda_share"] = traced.counts.mpdaBusyS / traced.wallS
		control = out["ledger.mpda_share"]
	}
	out["ledger.unattributed_share"] = 1 - out["ledger.eventq_share"] - out["ledger.des_share"] -
		out["ledger.router_share"] - out["ledger.gallager_share"] - control
	return out
}
