package experiments

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"minroute/internal/leaktest"
	"minroute/internal/simpool"
)

// exports lists the artifact prefixes a figure's telemetry export writes at
// seed 1 and one run: <id>_<label>_s<seed>, one per simulation, and a sweep
// gives each point an id of its own.
var exports = map[string][]string{
	"fig14":    {"fig14_MP-TL-10-TS-2_s1", "fig14_MP-TL-20-TS-2_s1", "fig14_SP-TL-10_s1", "fig14_SP-TL-20_s1"},
	"abl-ah":   {"abl-ah_AH-damped_s1", "abl-ah_AH-literal_s1", "abl-ah_AH-off_s1"},
	"jitter":   {"jitter_MP-TL-10-TS-2_s1", "jitter_SP-TL-10_s1"},
	"overhead": {"overhead_MP-TL-10-TS-2_s1", "overhead_MP-TL-20-TS-2_s1", "overhead_MP-TL-40-TS-2_s1", "overhead_MP-TL-5-TS-2_s1"},
	"failover": {"failover_MP-TL-10-TS-2_s1", "failover_SP-TL-10_s1"},
	"loadsweep": {
		"loadsweep-030_MP-TL-10-TS-2_s1", "loadsweep-030_SP-TL-10_s1", "loadsweep-060_MP-TL-10-TS-2_s1",
		"loadsweep-060_SP-TL-10_s1", "loadsweep-090_MP-TL-10-TS-2_s1", "loadsweep-090_SP-TL-10_s1",
		"loadsweep-100_MP-TL-10-TS-2_s1", "loadsweep-100_SP-TL-10_s1", "loadsweep-110_MP-TL-10-TS-2_s1",
		"loadsweep-110_SP-TL-10_s1",
	},
}

// outcome is what one figure run publishes: the hash of its CSV, as the pin
// takes it, and, when it exported telemetry, one hash over every artifact's
// name and content.
type outcome struct{ csv, artifacts string }

// TestFigureDeterminism is the invariance table behind ROADMAP aim 3: each
// row is a knob setting and the figures that exercise it, each (figure, row)
// cell runs once, and no figure may depend on the knob. Table() prints the
// values CSV() prints plus constant text, so the CSV is the figure.
//
// A row at Quick is checked against testdata/quick_figures.sha256. Any other
// row is checked against a baseline computed once per figure and settings,
// at the host's GOMAXPROCS, one worker and no shards; a TelemetryDir in a
// row's settings means that the baseline and the cell both export, each
// into a fresh directory, and their artifacts must match too. Every export
// must hold the two artifacts of each simulation, and where the ring cap
// is raised so that no ring overflows, each metrics snapshot must say so.
// Which events a full ring drops depends on how emissions split across
// shard tracers, so at the default cap the artifacts could not match.
func TestFigureDeterminism(t *testing.T) {
	leaktest.Check(t)
	procs, workers := runtime.GOMAXPROCS(0), simpool.Workers()
	defer func() {
		runtime.GOMAXPROCS(procs)
		simpool.SetWorkers(workers)
	}()

	// runs2 fans two seeds out per scheme: the pin runs one, so it cannot
	// see runSeeds' reduction. brief is short enough to run five figures
	// three times each. artifacts exports fig14's telemetry into rings that
	// hold a whole run.
	runs2 := Settings{Warmup: 10, Duration: 5, Seed: 1, Runs: 2}
	brief := Settings{Warmup: 4, Duration: 2, Seed: 1}
	artifacts := Settings{Warmup: 10, Duration: 5, Seed: 1, TelemetryDir: "export", TelemetryRingCap: 1 << 16}
	pinned := []string{"fig14", "abl-est", "fig10", "fig16"}
	fig14 := []string{"fig14"}
	briefs := []string{"abl-ah", "jitter", "overhead", "failover", "loadsweep"}
	rows := []struct {
		name string
		set  Settings
		// procs 0 keeps the host's GOMAXPROCS; workers 0 is GOMAXPROCS.
		procs, workers, shards int
		// export turns telemetry export on in the cell but not the baseline.
		export  bool
		figures []string
	}{
		{"procs1-workers1", Quick, 1, 1, 0, false, pinned},
		{"procs16-workers8", Quick, 16, 8, 0, false, pinned},
		{"shards2-procs16", Quick, 16, 0, 2, false, fig14},
		{"shards3-procs1", Quick, 1, 0, 3, false, fig14},
		{"shards8-procs16", Quick, 16, 0, 8, false, fig14},
		{"runs2-workers8", runs2, 0, 8, 0, false, fig14},
		{"export", brief, 0, 0, 0, true, briefs},
		{"shards2", brief, 0, 0, 2, false, briefs},
		{"artifacts-workers8", artifacts, 0, 8, 0, false, fig14},
		{"artifacts-shards2-procs1", artifacts, 1, 0, 2, false, fig14},
		{"artifacts-shards3-procs16", artifacts, 16, 0, 3, false, fig14},
		{"artifacts-shards8-procs1", artifacts, 1, 0, 8, false, fig14},
	}

	pin := readPin(t)
	for _, id := range slices.Concat(pinned, briefs) {
		t.Run(id, func(t *testing.T) {
			baselines := map[Settings]outcome{}
			for _, row := range rows {
				if !slices.Contains(row.figures, id) {
					continue
				}
				t.Run(row.name, func(t *testing.T) {
					want, ok := baselines[row.set]
					if row.set == Quick {
						want = outcome{csv: pin[id]}
					} else if !ok {
						runtime.GOMAXPROCS(procs)
						simpool.SetWorkers(1)
						want = generate(t, id, row.set)
						baselines[row.set] = want
					}
					cell := row.set
					cell.Shards = row.shards
					if row.export {
						cell.TelemetryDir = "export"
					}
					runtime.GOMAXPROCS(cmp.Or(row.procs, procs))
					simpool.SetWorkers(row.workers)
					got := generate(t, id, cell)
					if got.csv != want.csv {
						t.Errorf("CSV hash %s, baseline %s", got.csv, want.csv)
					}
					if got.artifacts != want.artifacts && want.artifacts != "" {
						t.Errorf("artifact hash %s, baseline %s", got.artifacts, want.artifacts)
					}
				})
			}
		})
	}
}

// generate runs figure id at set, exporting telemetry into a fresh directory
// when set.TelemetryDir is non-empty, and checks the export.
func generate(t *testing.T, id string, set Settings) outcome {
	t.Helper()
	if set.TelemetryDir != "" {
		set.TelemetryDir = t.TempDir()
	}
	fig, err := All[id](set)
	if err != nil {
		t.Fatal(err)
	}
	out := outcome{csv: csvHash(fig)}
	if set.TelemetryDir == "" {
		return out
	}
	var want []string
	for _, prefix := range exports[id] {
		want = append(want, prefix+".events.jsonl", prefix+".metrics.txt")
	}
	slices.Sort(want)
	entries, err := os.ReadDir(set.TelemetryDir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var names []string
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(set.TelemetryDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(e.Name() + "\x00"))
		h.Write(append(data, 0))
		names = append(names, e.Name())
		if strings.HasSuffix(e.Name(), ".metrics.txt") && set.TelemetryRingCap > 0 &&
			!bytes.Contains(data, []byte("\ncounter telemetry.events.dropped 0\n")) {
			t.Errorf("%s: a ring of capacity %d overflowed", e.Name(), set.TelemetryRingCap)
		}
	}
	if !slices.Equal(names, want) {
		t.Errorf("exported %v, want the two artifacts of each of %v", names, exports[id])
	}
	out.artifacts = hex.EncodeToString(h.Sum(nil))
	return out
}

// TestTelemetryExportErrorReported: each simulation's export runs after the
// simulation has released its worker slot, so exports finish in any order
// at eight workers; a figure whose exports all fail must still fail, and
// name the first simulation by (scheme, seed) order.
func TestTelemetryExportErrorReported(t *testing.T) {
	leaktest.Check(t)
	workers := simpool.Workers()
	defer simpool.SetWorkers(workers)
	simpool.SetWorkers(8)
	set := Settings{Warmup: 4, Duration: 2, Seed: 1, Runs: 2, TelemetryDir: filepath.Join(t.TempDir(), "missing")}
	_, err := All["fig14"](set)
	if err == nil || !strings.Contains(err.Error(), "telemetry export") ||
		!strings.Contains(err.Error(), "fig14_MP-TL-10-TS-2_s1.events.jsonl") {
		t.Fatalf("Fig14 into a missing directory: err = %v, want the first simulation's telemetry export error", err)
	}
}
