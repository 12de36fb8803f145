package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"minroute/internal/chaos"
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

// runOK runs mdrsim in-process and fails the test unless it exits 0.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("mdrsim %s: exit %d\n%s", strings.Join(args, " "), code, stderr.String())
	}
	return stdout.String()
}

func writeScenario(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "net.txt")
	if err := os.WriteFile(path, []byte(tinyScenario), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunScenarioTelemetryExport exercises the -scenario path with a
// telemetry directory that does not exist yet: the two artifacts must
// land under the documented scenario_<mode>_s<seed> prefix, and the run
// must still succeed without telemetry (the flag is strictly additive).
func TestRunScenarioTelemetryExport(t *testing.T) {
	path := writeScenario(t)
	telDir := filepath.Join(t.TempDir(), "tel")
	out := runOK(t, "-scenario", path, "-quick", "-seed", "7", "-telemetry", telDir)
	if !strings.HasPrefix(out, "MP on "+path+" (3 nodes, 6 links, 2 flows):") {
		t.Errorf("unexpected output:\n%s", out)
	}
	for _, name := range []string{
		"scenario_mp_s7.events.jsonl",
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

	if plain := runOK(t, "-scenario", path, "-quick", "-seed", "7"); plain != out {
		t.Errorf("telemetry changed the output:\n%s\nwithout it:\n%s", out, plain)
	}
}

// TestFigureTelemetryHoldsTheControlPlane: the exports of Quick fig10 and
// failover are complete, so mdrsim prints no truncation warning, each
// simulation dropped no event and its log holds one lsu_send line per LSU
// its metrics count (control.msgs); and the CSV is the one the run prints
// without telemetry. (The warning's wording is telemetry's
// TestTruncationNamesTheBand.)
func TestFigureTelemetryHoldsTheControlPlane(t *testing.T) {
	for _, c := range []struct {
		fig      string
		prefixes []string
	}{
		{"fig10", []string{"fig10_OPT_s1", "fig10_MP-TL-10-TS-2_s1"}},
		{"failover", []string{"failover_SP-TL-10_s1", "failover_MP-TL-10-TS-2_s1"}},
	} {
		t.Run(c.fig, func(t *testing.T) {
			telDir := t.TempDir()
			args := []string{"-fig", c.fig, "-quick", "-csv", "-telemetry", telDir}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr.String())
			}
			if stderr.Len() != 0 {
				t.Errorf("stderr:\n%s\nwant nothing", stderr.String())
			}
			for _, prefix := range c.prefixes {
				checkControlPlaneExport(t, telDir, prefix)
			}
			if plain := runOK(t, "-fig", c.fig, "-quick", "-csv"); plain != stdout.String() {
				t.Errorf("telemetry changed the CSV:\n%s\nwithout it:\n%s", stdout.String(), plain)
			}
		})
	}
}

// checkControlPlaneExport checks that the export under prefix in dir is
// complete and holds its run's whole control plane: neither band dropped
// an event, and the log has one lsu_send line per LSU the metrics count
// (control.msgs).
func checkControlPlaneExport(t *testing.T, dir, prefix string) {
	t.Helper()
	metrics, err := os.ReadFile(filepath.Join(dir, prefix+".metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}
	count := func(name string) string {
		for _, line := range strings.Split(string(metrics), "\n") {
			if v, ok := strings.CutPrefix(line, "counter "+name+" "); ok {
				return v
			}
		}
		t.Fatalf("%s.metrics.txt has no %s", prefix, name)
		return ""
	}
	if dropped := count("telemetry.events.dropped"); dropped != "0" {
		t.Errorf("%s: telemetry dropped %s events", prefix, dropped)
	}
	events, err := os.ReadFile(filepath.Join(dir, prefix+".events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	sends := strconv.Itoa(bytes.Count(events, []byte(`"kind":"lsu_send"`)))
	if msgs := count("control.msgs"); sends != msgs || msgs == "0" {
		t.Errorf("%s: %s lsu_send events in the log, control.msgs %s", prefix, sends, msgs)
	}
}

// TestScenarioModeRunsTheCompareColumn holds `-scenario f -mode m` to the
// experiment `-scenario f -compare` runs for the same scheme: at one seed,
// each flow's mean delay is bit-equal to its cell in the column, so the
// means the two commands print agree. (-mode sp used to set Ts = Tl without
// the 5 s measurement window.)
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
	for mode, label := range map[string]string{"mp": "MP-TL-10-TS-2", "sp": "SP-TL-10"} {
		col := slices.Index(fig.Columns, label)
		if col < 0 {
			t.Fatalf("-compare has no %s column: %v", label, fig.Columns)
		}
		sim, _, err := experiments.Scenario(net, mode, set)
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

	// The command prints the same comparison.
	if got := runOK(t, "-scenario", writeScenario(t), "-compare", "-csv", "-quick", "-runs", "1"); got != fig.CSV() {
		t.Errorf("-compare -csv printed\n%s\nwant\n%s", got, fig.CSV())
	}
}

// TestRunChaosTelemetryExport exercises the -chaos path with telemetry: one
// export per runner under the <name>_<runner> prefix, and nothing else; the
// DES run's export holds its whole control plane.
func TestRunChaosTelemetryExport(t *testing.T) {
	telDir := t.TempDir()
	out := runOK(t, "-chaos", "link-flap", "-telemetry", telDir)
	if !strings.HasSuffix(out, "all invariants held\n") {
		t.Errorf("unexpected output:\n%s", out)
	}
	entries, err := os.ReadDir(telDir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	want := []string{
		"link-flap_des.events.jsonl",
		"link-flap_des.metrics.txt",
		"link-flap_proto.events.jsonl",
		"link-flap_proto.metrics.txt",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("exported %v, want %v", got, want)
	}
	checkControlPlaneExport(t, telDir, "link-flap_des")
}

// TestListModes covers the two registries mdrsim prints.
func TestListModes(t *testing.T) {
	if got, want := runOK(t, "-list"), strings.Join(experiments.IDs, "\n")+"\n"; got != want {
		t.Errorf("-list printed\n%s\nwant\n%s", got, want)
	}
	if got, want := runOK(t, "-chaos", "list"), strings.Join(experiments.ChaosNames(), "\n")+"\n"; got != want {
		t.Errorf("-chaos list printed\n%s\nwant\n%s", got, want)
	}
}

// TestFigureSVGIntoMissingDirectory runs one Quick figure with -svg into a
// directory that does not exist yet: mdrsim creates it before the work
// starts, and the figure's CSV is the one the experiments package pins.
func TestFigureSVGIntoMissingDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "not", "yet")
	out := runOK(t, "-fig", "fig10", "-quick", "-csv", "-svg", dir)
	fig, err := experiments.Fig10(experiments.Quick)
	if err != nil {
		t.Fatal(err)
	}
	if out != fig.CSV() {
		t.Errorf("-fig fig10 -quick -csv printed\n%s\nwant\n%s", out, fig.CSV())
	}
	svg, err := os.ReadFile(filepath.Join(dir, "fig10.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(svg, []byte("<svg")) {
		t.Errorf("fig10.svg does not start with <svg: %.40q", svg)
	}

	table := runOK(t, "-fig", "fig10", "-quick", "-chart")
	if !strings.HasPrefix(table, fig.Table()) || !strings.Contains(table, fig.Chart(60)) {
		t.Errorf("-fig fig10 -quick -chart printed\n%s", table)
	}
}

// TestOutputsPinned holds the -opt, -topo and -fuzz modes to pinned bytes.
// A path in file means the output under test is that file.
func TestOutputsPinned(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		args []string
		file string
		sum  string
	}{
		{[]string{"-opt", "net1", "-splits"}, "", "cb19abceec3e8ec604ee56361510d3164ffceef59697120ad72458ab57c59220"},
		{[]string{"-opt", "cairn"}, "", "31befdba343e42134cedc7dc5e2f119a2dd33d62a7b08c83e9e3be68425a378b"},
		{[]string{"-topo", "cairn", "-links"}, "", "022268cb7f1d4bdc1654c06db9c66735f140794a1c4bd30fea1a9531aaec4833"},
		{[]string{"-topo", "net1"}, "", "651bbb77e38ef9d220e1ab852409a90d1c25e36dc97ae8eb2d7740b8382d6633"},
		{[]string{"-topo", "scalefree", "-n", "200", "-flows", "64", "-out", filepath.Join(dir, "big.topo")}, filepath.Join(dir, "big.topo"), "f4a6908655aa990a5df17f72a7461a46505fceca7b3b71dd965971e773087f3b"},
		{[]string{"-topo", "grid", "-n", "400", "-flows", "100"}, "", "fba78f1059a00afa0abb316b9c190bd8ae901298295bf952ea20bbc953a93112"},
		{[]string{"-fuzz", "20", "-des", "-workers", "2"}, "", "22fa57ca43e7ef8bec6609144251e57acfd8bcab89b6fb5712d7e5f71eb972ad"},
	} {
		out := []byte(runOK(t, c.args...))
		if c.file != "" {
			var err error
			if out, err = os.ReadFile(c.file); err != nil {
				t.Fatal(err)
			}
		}
		sum := sha256.Sum256(out)
		if got := hex.EncodeToString(sum[:]); got != c.sum {
			t.Errorf("mdrsim %s: sha256 %s, want %s\n%s", strings.Join(c.args, " "), got, c.sum, out)
		}
	}
}

// TestFuzzVerbose covers -v: one ok line per scenario and runner, in seed
// order, before the summary.
func TestFuzzVerbose(t *testing.T) {
	out := runOK(t, "-fuzz", "2", "-seed", "5", "-des", "-v")
	var runs []string
	for _, line := range strings.Split(out, "\n") {
		if seed, _, ok := strings.Cut(line, ": ok, "); ok {
			runs = append(runs, seed)
		}
	}
	if want := []string{"seed 5 (des)", "seed 5 (proto)", "seed 6 (des)", "seed 6 (proto)"}; !slices.Equal(runs, want) {
		t.Errorf("-v printed runs %v, want %v\n%s", runs, want, out)
	}
	if !strings.Contains(out, "2 scenarios, ") || !strings.HasSuffix(out, "no violations\n") {
		t.Errorf("unexpected summary:\n%s", out)
	}
}

// TestWriteReproducer covers what -fuzz leaves behind for a violation: the
// scenario as JSON that loads back unchanged, and its event log beside it.
func TestWriteReproducer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repro.json")
	s := chaos.Generate(3)
	var out bytes.Buffer
	if err := writeReproducer(&out, s, path); err != nil {
		t.Fatal(err)
	}
	back, err := chaos.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Errorf("reproducer loads back as %+v, want %+v", back, s)
	}
	events, err := os.ReadFile(path + ".events.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Error("reproducer event log is empty")
	}
	if !strings.Contains(out.String(), "replay with: mdrsim -chaos "+path) {
		t.Errorf("unexpected output:\n%s", out.String())
	}

	if err := writeReproducer(&out, s, filepath.Join(path, "under-a-file.json")); err == nil {
		t.Error("writing under a regular file succeeded")
	}
}

// TestExitCodes holds the documented exit status: 2 for usage errors, 1
// for errors, 0 for -h.
func TestExitCodes(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.txt")
	for _, c := range []struct {
		args []string
		code int
		msg  string // what stderr must say, where it matters
	}{
		{[]string{"-h"}, 0, ""},
		{nil, 2, ""},
		{[]string{"-bogus"}, 2, ""},
		{[]string{"-fig", "fig12", "-quick", "-shards", "2"}, 2, ""}, // a simulation runs on one engine
		{[]string{"-fig", "nosuch"}, 2, ""},
		{[]string{"-fig", "fig9", "-all"}, 2, ""},
		{[]string{"-opt", "net1", "-topo", "net1"}, 2, ""},
		{[]string{"-opt", "nosuch"}, 2, ""},
		{[]string{"-topo", "nosuch"}, 2, ""},
		{[]string{"-chaos", "nosuch"}, 1, ""},
		{[]string{"-scenario", missing}, 1, ""},
		{[]string{"-scenario", missing, "-compare"}, 1, ""},
		{[]string{"-scenario", writeScenario(t), "-mode", "ecmp"}, 2, `unknown mode "ecmp" (mp, sp)`},
		{[]string{"-scenario", missing, "-mode", "bogus"}, 2, `unknown mode "bogus" (mp, sp)`}, // before the file is opened
		{[]string{"-scenario", missing, "-compare", "-mode", "bogus"}, 1, "no such file"},      // -compare ignores -mode
		{[]string{"-topo", "grid", "-out", filepath.Join(missing, "x")}, 1, ""},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.code {
			t.Errorf("mdrsim %s: exit %d, want %d\n%s", strings.Join(c.args, " "), code, c.code, stderr.String())
		}
		if !strings.Contains(stderr.String(), c.msg) {
			t.Errorf("mdrsim %s: stderr %q does not say %q", strings.Join(c.args, " "), stderr.String(), c.msg)
		}
	}
}

// TestErrorExitWritesProfiles: an error exit still stops the CPU profile
// and writes the heap profile, so the profile of a failing run is there to
// read.
func TestErrorExitWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-chaos", "nosuch", "-cpuprofile", cpu, "-memprofile", mem}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, stderr.String())
	}
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(path))
		}
	}

	if code := run([]string{"-list", "-cpuprofile", filepath.Join(dir, "no", "cpu.prof")}, &stdout, &stderr); code != 1 {
		t.Errorf("-cpuprofile into a missing directory: exit %d, want 1", code)
	}
}
