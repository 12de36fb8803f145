package main

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"minroute/internal/chaos"
	"minroute/internal/simpool"
	"minroute/internal/telemetry"
)

// reproPath is where -fuzz writes the shrunk reproducer when -out is unset.
const reproPath = "repro.json"

// runFuzz hunts for invariant violations with randomized chaos scenarios:
// seed-derived fault schedules over the paper's topologies (chaos.Generate)
// run against the protocol-level harness, and with -des the packet
// simulator too, with every oracle armed. The first violating scenario is
// shrunk to a minimal reproducer for `mdrsim -chaos <file>`. Any violation
// is an error (exit 1).
func runFuzz(o *options, stdout, _ io.Writer) error {
	type outcome struct {
		seed   uint64
		runner string
		res    *chaos.Result
		err    error
	}
	results := make([]outcome, 0, 2*o.fuzz)
	var mu sync.Mutex
	g := simpool.Coordinator()
	for i := 0; i < o.fuzz; i++ {
		s := o.seed + uint64(i)
		g.Go(func() error {
			sc := chaos.Generate(s)
			res, err := chaos.RunProto(sc)
			mu.Lock()
			results = append(results, outcome{s, "proto", res, err})
			mu.Unlock()
			if o.des {
				res, err = chaos.RunDES(sc)
				mu.Lock()
				results = append(results, outcome{s, "des", res, err})
				mu.Unlock()
			}
			return nil
		})
	}
	g.Wait()
	sort.Slice(results, func(i, j int) bool {
		if results[i].seed != results[j].seed {
			return results[i].seed < results[j].seed
		}
		return results[i].runner < results[j].runner
	})

	counts := make(map[string]int64)
	var events int64
	failures := 0
	var firstBad uint64
	for _, r := range results {
		if r.err != nil {
			return fmt.Errorf("seed %d (%s): %w", r.seed, r.runner, r.err)
		}
		events += r.res.Events
		for _, c := range r.res.Log.Counts() {
			counts[c.Check] += c.Count
		}
		if r.res.Failed() {
			if failures == 0 {
				firstBad = r.seed
			}
			failures++
			fmt.Fprintf(stdout, "seed %d (%s): VIOLATION %s\n", r.seed, r.runner, r.res.Log.Violations[0])
		} else if o.verbose {
			fmt.Fprintf(stdout, "seed %d (%s): ok, %d events, hash %.12s\n", r.seed, r.runner, r.res.Events, r.res.TraceHash)
		}
	}

	names := make([]string, 0, len(counts))
	//lint:maporder-ok keys are sorted before printing
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%d scenarios, %d events\n", o.fuzz, events)
	for _, name := range names {
		fmt.Fprintf(stdout, "  oracle %-22s ran %d times\n", name, counts[name])
	}

	if failures == 0 {
		fmt.Fprintln(stdout, "no violations")
		return nil
	}
	fmt.Fprintf(stdout, "%d violating runs; shrinking seed %d\n", failures, firstBad)
	min := chaos.Shrink(chaos.Generate(firstBad), func(c *chaos.Scenario) bool {
		res, err := chaos.RunProto(c)
		return err == nil && res.Failed()
	})
	out := o.out
	if out == "" {
		out = reproPath
	}
	if err := writeReproducer(stdout, min, out); err != nil {
		return fmt.Errorf("reproducer: %w", err)
	}
	return fmt.Errorf("%d violating runs", failures)
}

// writeReproducer saves the shrunk scenario as JSON at path, then replays
// it once more with telemetry capture and writes its full event timeline
// next to it as <path>.events.jsonl, so the violating schedule can be
// inspected (or diffed against a fixed build with mdrtrace) without
// rerunning anything.
func writeReproducer(stdout io.Writer, min *chaos.Scenario, path string) error {
	if err := min.Save(path); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "minimal reproducer (%d actions) written to %s — replay with: mdrsim -chaos %s\n",
		len(min.Actions), path, path)
	tn, err := min.Network()
	if err != nil {
		return err
	}
	tel := telemetry.NewCapture(tn.Graph.NumNodes())
	if _, err := chaos.RunProtoWith(min, tel); err != nil {
		return err
	}
	events := path + ".events.jsonl"
	if err := writeFile(events, func(w io.Writer) error { return telemetry.WriteJSONL(w, tel.Trace.Events()) }); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "reproducer event log written to %s\n", events)
	return nil
}
