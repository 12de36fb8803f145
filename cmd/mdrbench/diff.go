package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json -diff reads: the metrics,
// with the end-to-end ones' bounds.
type benchmarkFile struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func readJSON(path string, v any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(blob, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of one (workload, end-to-end metric) comparison.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares a metric's old and new runs against its bound: the new
// median's move in the bad direction as a share of the old median. A side
// whose own spread exceeds the bound cannot resolve a difference of that
// size: the verdict is then unresolved — unless every new run reads better
// than every old run, which no spread can explain away.
func judge(d metricDecl, old, new sample) string {
	sign := 1.0
	if d.Better == higher {
		sign = -1
	}
	worsening := sign * (new.Median - old.Median) / old.Median
	switch {
	case spread(old.Values) > d.Bound || spread(new.Values) > d.Bound:
		if allBetter(sign, old.Values, new.Values) {
			return verdictBetter
		}
		return verdictUnresolved
	case worsening > d.Bound:
		return verdictWorse
	case worsening < -d.Bound:
		return verdictBetter
	}
	return verdictSame
}

// allBetter reports whether every new value beats every old one.
func allBetter(sign float64, old, new []float64) bool {
	if len(old) == 0 || len(new) == 0 {
		return false
	}
	for _, n := range new {
		for _, o := range old {
			if sign*(n-o) >= 0 {
				return false
			}
		}
	}
	return true
}

// runDiff prints one row per (workload, end-to-end metric) with a verdict,
// then the per-layer rows without one, and exits non-zero on any worse
// verdict or a higher share of failed operations.
func runDiff(oldPath, newPath, benchPath string, stdout, stderr io.Writer) int {
	var oldRep, newRep suiteReport
	var bench benchmarkFile
	for _, f := range []struct {
		path string
		into any
	}{{oldPath, &oldRep}, {newPath, &newRep}, {benchPath, &bench}} {
		if err := readJSON(f.path, f.into); err != nil {
			fmt.Fprintf(stderr, "mdrbench: %v\n", err)
			return 2
		}
	}
	newBy := make(map[string]workloadReport, len(newRep.Workloads))
	for _, wr := range newRep.Workloads {
		newBy[wr.Name] = wr
	}
	bad := false
	fmt.Fprintf(stdout, "%-18s %-16s %12s %12s %12s %12s %8s %7s  %s\n",
		"workload", "metric", "old median", "old q1..q3", "new median", "new q1..q3", "change", "bound", "verdict")
	for _, ow := range oldRep.Workloads {
		nw, ok := newBy[ow.Name]
		if !ok {
			fmt.Fprintf(stdout, "%-18s missing from %s\n", ow.Name, newPath)
			bad = true
			continue
		}
		for _, d := range bench.EndToEnd {
			o, n := ow.EndToEnd[d.Name], nw.EndToEnd[d.Name]
			verdict := judge(d, o, n)
			bad = bad || verdict == verdictWorse
			fmt.Fprintf(stdout, "%-18s %-16s %12.6g %12s %12.6g %12s %+7.1f%% %6.1f%%  %s\n",
				ow.Name, d.Name, o.Median, span2(o.Q1, o.Q3), n.Median, span2(n.Q1, n.Q3),
				100*(n.Median-o.Median)/o.Median, 100*d.Bound, verdict)
		}
		if failShare(nw) > failShare(ow) {
			fmt.Fprintf(stdout, "%-18s failed operations rose: %d of %d, was %d of %d\n", ow.Name, nw.Failed, nw.Attempted, ow.Failed, ow.Attempted)
			bad = true
		}
		if ow.Hash != nw.Hash {
			fmt.Fprintf(stdout, "%-18s exact outputs differ (hash %s, was %s): behaviour changed, or the seeds differ\n", ow.Name, short(nw.Hash), short(ow.Hash))
		}
	}
	fmt.Fprintf(stdout, "\nper-layer (traced run, no verdict)\n%-18s %-30s %14s %14s %8s\n", "workload", "metric", "old", "new", "change")
	for _, ow := range oldRep.Workloads {
		nw := newBy[ow.Name]
		for _, d := range bench.PerLayer {
			o, n := ow.PerLayer[d.Name], nw.PerLayer[d.Name]
			if o == 0 && n == 0 {
				continue // the workload never enters this layer
			}
			change := "n/a"
			if o != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(n-o)/o)
			}
			fmt.Fprintf(stdout, "%-18s %-30s %14.6g %14.6g %8s\n", ow.Name, d.Name, o, n, change)
		}
	}
	if bad {
		return 1
	}
	return 0
}

func failShare(wr workloadReport) float64 {
	if wr.Attempted == 0 {
		return 0
	}
	return float64(wr.Failed) / float64(wr.Attempted)
}

func span2(a, b float64) string { return fmt.Sprintf("%.4g..%.4g", a, b) }
