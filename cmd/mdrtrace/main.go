// Command mdrtrace inspects telemetry event logs exported by mdrsim (its
// -telemetry artifacts and the log -fuzz writes beside a reproducer) and
// the experiment harness (the *.events.jsonl artifacts).
//
// Usage:
//
//	mdrtrace run.events.jsonl                      # print the log (filtered)
//	mdrtrace -kind lsu_send,lsu_recv run.events.jsonl
//	mdrtrace -router 3 -since 1.5 -until 2.5 run.events.jsonl
//	mdrtrace -summary run.events.jsonl             # per-kind / per-router counts
//	mdrtrace -diff a.events.jsonl b.events.jsonl   # first divergence between logs
//	mdrtrace -chrome run.events.jsonl > trace.json # convert for chrome://tracing
//	mdrtrace -flood -flood-hops run.events.jsonl   # LSU flood propagation trees
//
// Filters compose: -summary, -diff, and -chrome all operate on the
// filtered view. Exit status 1 when -diff finds a divergence.
//
// A log holds every control-plane event, but per-hop packet events
// (pkt_enqueue, pkt_deliver) only for the sampled packets, one in 32 by
// packet number; losses and drops are there for every packet. So the
// per-packet views (-flow, the pkt_* kinds) cover the sampled packets.
package main

import (
	"flag"
	"fmt"
	"os"

	"minroute/internal/telemetry"
)

func main() {
	var (
		kinds   = flag.String("kind", "", "comma-separated event kinds to keep (see -kinds)")
		listK   = flag.Bool("kinds", false, "list the event kinds and exit")
		router  = flag.Int("router", -2, "keep only events for this router (-1 = network scope)")
		flowID  = flag.Int("flow", -2, "keep only events for this flow ID (its hops and deliveries for the sampled packets, 1 in 32)")
		since   = flag.Float64("since", 0, "keep only events at sim time >= this")
		until   = flag.Float64("until", -1, "keep only events at sim time <= this (negative = no bound)")
		summary = flag.Bool("summary", false, "print per-kind and per-router counts instead of events")
		diff    = flag.Bool("diff", false, "compare two logs and report the first divergence")
		chrome  = flag.Bool("chrome", false, "emit Chrome trace-viewer JSON instead of JSONL")
		flood   = flag.Bool("flood", false, "reconstruct per-LSU flood propagation trees from lsu_send/lsu_recv pairs")
		floodW  = flag.Float64("flood-window", 0, "flood mode: max seconds between an arrival and the sends it caused (0 = same sim instant)")
		floodH  = flag.Bool("flood-hops", false, "flood mode: print every hop with its per-hop latency")
	)
	flag.Parse()

	if *listK {
		for k := 0; k < telemetry.NumKinds(); k++ {
			fmt.Println(telemetry.Kind(k))
		}
		return
	}

	f, err := parseFilter(*kinds, *router, *flowID, *since, *until)
	if err != nil {
		fatal(err)
	}

	if *diff {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-diff wants exactly two log files"))
		}
		a, err := loadEvents(flag.Arg(0), f)
		if err != nil {
			fatal(err)
		}
		b, err := loadEvents(flag.Arg(1), f)
		if err != nil {
			fatal(err)
		}
		report, same := diffEvents(a, b)
		fmt.Print(report)
		if !same {
			os.Exit(1)
		}
		return
	}

	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	events, err := loadEvents(flag.Arg(0), f)
	if err != nil {
		fatal(err)
	}
	switch {
	case *flood:
		fmt.Print(renderFlood(buildFlood(events, *floodW), *floodH))
	case *summary:
		fmt.Print(summarize(events))
	case *chrome:
		if err := telemetry.WriteChromeTrace(os.Stdout, events); err != nil {
			fatal(err)
		}
	default:
		if err := telemetry.WriteJSONL(os.Stdout, events); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "mdrtrace: %v\n", err)
	os.Exit(1)
}

func loadEvents(path string, f filter) ([]telemetry.Event, error) {
	r, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	events, err := telemetry.ReadJSONL(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return filterEvents(events, f), nil
}
