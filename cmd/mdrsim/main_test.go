package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"minroute/internal/experiments"
	"minroute/internal/topo"
)

const tinyScenario = `# triangle with one two-path flow
link a b 10Mbps 0.5ms
link b c 10Mbps 0.5ms
link a c 5Mbps 1ms
flow a c 3Mbps
flow c b 2Mbps
`

// TestRunScenarioTelemetryExport exercises the -scenario path with a
// telemetry directory: the three artifacts must land under the documented
// scenario_<mode>_s<seed> prefix, and the run must still succeed without
// telemetry (the flag is strictly additive).
func TestRunScenarioTelemetryExport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.txt")
	if err := os.WriteFile(path, []byte(tinyScenario), 0o644); err != nil {
		t.Fatal(err)
	}
	set := experiments.Settings{Warmup: 2, Duration: 2, Seed: 7}

	telDir := filepath.Join(dir, "tel")
	if err := os.MkdirAll(telDir, 0o755); err != nil {
		t.Fatal(err)
	}
	tel := set
	tel.TelemetryDir = telDir
	if err := runScenario(path, "mp", tel); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"scenario_mp_s7.events.jsonl",
		"scenario_mp_s7.trace.json",
		"scenario_mp_s7.metrics.txt",
	} {
		st, err := os.Stat(filepath.Join(telDir, name))
		if err != nil {
			t.Fatalf("missing artifact %s: %v", name, err)
		}
		if st.Size() == 0 {
			t.Errorf("artifact %s is empty", name)
		}
	}

	if err := runScenario(path, "mp", set); err != nil {
		t.Fatalf("telemetry-off run: %v", err)
	}
}

// TestScenarioModeRunsTheCompareColumn holds `-scenario f -mode m` to the
// experiment `-scenario f -compare` runs for the same scheme: at one seed,
// each flow's mean delay is bit-equal to its cell in the column, so the
// means the two commands print agree. (-mode sp used to set Ts = Tl without
// the 5 s measurement window, and -mode ecmp neither.)
func TestScenarioModeRunsTheCompareColumn(t *testing.T) {
	net, err := topo.Parse(strings.NewReader(tinyScenario))
	if err != nil {
		t.Fatal(err)
	}
	set := experiments.Quick
	set.Runs = 1
	fig, err := experiments.CustomComparison(net, set)
	if err != nil {
		t.Fatal(err)
	}
	for mode, label := range map[string]string{"mp": "MP-TL-10-TS-2", "sp": "SP-TL-10", "ecmp": "ECMP-TL-10"} {
		col := slices.Index(fig.Columns, label)
		if col < 0 {
			t.Fatalf("-compare has no %s column: %v", label, fig.Columns)
		}
		sim, err := experiments.Scenario(net, mode, set)
		if err != nil {
			t.Fatal(err)
		}
		rep := sim.Report()
		for x, got := range rep.MeanDelayMs {
			if want := fig.Data[x][col]; got != want {
				t.Errorf("-mode %s flow %d: %v ms, %s column has %v", mode, x, got, label, want)
			}
		}
		if got, want := rep.AvgMeanDelayMs(), fig.ColumnMean(col); got != want {
			t.Errorf("-mode %s prints mean %v ms, %s column's mean is %v", mode, got, label, want)
		}
	}
}

// TestRunChaosTelemetryExport exercises the -chaos path with telemetry: one
// export per runner under the <name>_<runner> prefix, including the sharded
// DES replay when -shards is set.
func TestRunChaosTelemetryExport(t *testing.T) {
	telDir := t.TempDir()
	if err := runChaos("link-flap", telDir, 2); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"link-flap_proto.events.jsonl",
		"link-flap_proto.trace.json",
		"link-flap_proto.metrics.txt",
		"link-flap_des.events.jsonl",
		"link-flap_des.trace.json",
		"link-flap_des.metrics.txt",
		"link-flap_des-sharded2.events.jsonl",
		"link-flap_des-sharded2.trace.json",
		"link-flap_des-sharded2.metrics.txt",
	} {
		if _, err := os.Stat(filepath.Join(telDir, name)); err != nil {
			t.Fatalf("missing artifact %s: %v", name, err)
		}
	}
}
