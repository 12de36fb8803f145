package experiments

import (
	"os"
	"strings"
	"testing"
)

// TestFiguresHonourTelemetryAndShards runs one figure from each shape the
// runner hosts — an ablation, a drive reading another statistic, one that
// counts control traffic from the end of warmup, one that injects faults
// between windows, a sweep over several networks — and checks the two
// Settings fields that used to reach only the paper's figures: TelemetryDir
// yields three artifacts per simulation under a prefix of its own, and
// Shards leaves the figure as it was.
func TestFiguresHonourTelemetryAndShards(t *testing.T) {
	set := Settings{Warmup: 4, Duration: 2, Seed: 1}
	for _, tc := range []struct {
		id   string
		sims int
	}{
		{"abl-ah", 3},
		{"jitter", 2},
		{"overhead", 4},
		{"failover", 2},
		{"loadsweep", 10},
	} {
		t.Run(tc.id, func(t *testing.T) {
			serial := figureHash(t, tc.id, set)

			tel := set
			tel.TelemetryDir = t.TempDir()
			if got := figureHash(t, tc.id, tel); got != serial {
				t.Errorf("figure hash %s with telemetry on, %s with it off", got, serial)
			}
			entries, err := os.ReadDir(tel.TelemetryDir)
			if err != nil {
				t.Fatal(err)
			}
			suffixes := map[string][]string{}
			for _, e := range entries {
				prefix, suffix, _ := strings.Cut(e.Name(), ".")
				suffixes[prefix] = append(suffixes[prefix], suffix)
			}
			if len(suffixes) != tc.sims {
				t.Errorf("%d artifact prefixes for %d simulations: %v", len(suffixes), tc.sims, suffixes)
			}
			for prefix, got := range suffixes {
				if strings.Join(got, " ") != "events.jsonl metrics.txt trace.json" {
					t.Errorf("prefix %s holds %v, want the three artifacts", prefix, got)
				}
			}

			sharded := set
			sharded.Shards = 2
			if got := figureHash(t, tc.id, sharded); got != serial {
				t.Errorf("figure hash %s at two shards, %s serially", got, serial)
			}
		})
	}
}
