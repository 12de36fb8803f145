package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"minroute/internal/graph"
	"minroute/internal/oracle"
	"minroute/internal/simpool"
)

// chaosScenario is a hand-written schedule exercising every action kind on
// NET1, used by the determinism and runner-behavior tests.
func chaosScenario() *Scenario {
	return &Scenario{
		Name: "kitchen-sink", Topo: TopoNET1, Seed: 3, Flows: 4, Duration: 6,
		Actions: []Action{
			{Kind: KindPerturb, Steps: 40, At: 0.5, Loss: 0.2, Dup: 0.1},
			{Kind: KindFail, Steps: 60, At: 1, A: 0, B: 1},
			{Kind: KindCost, Steps: 40, At: 1.5, A: 4, B: 5, Factor: 5},
			{Kind: KindCrash, Steps: 80, At: 2, Node: 7},
			{Kind: KindRestore, Steps: 50, At: 3, A: 0, B: 1},
			{Kind: KindRestart, Steps: 120, At: 4, Node: 7},
			{Kind: KindPerturb, Steps: 30, At: 5},
		},
	}
}

// TestRunnersAreDeterministic is the determinism golden test: the same
// scenario must hash identically run after run, whatever GOMAXPROCS or the
// simulation worker-pool width happen to be. Trace hashing covers the full
// transcript — fault applications, oracle counts, final routing tables — so
// any nondeterminism in the runners or the protocol shows up here.
func TestRunnersAreDeterministic(t *testing.T) {
	s := chaosScenario()
	type run struct {
		name string
		fn   func(*Scenario) (*Result, error)
	}
	for _, r := range []run{{"proto", RunProto}, {"des", RunDES}} {
		base, err := r.fn(s)
		if err != nil {
			t.Fatal(err)
		}
		if base.Failed() {
			t.Fatalf("%s: violations on the clean tree: %v", r.name, base.Log.Violations)
		}
		prev := runtime.GOMAXPROCS(1)
		simpool.SetWorkers(1)
		again, err := r.fn(s)
		runtime.GOMAXPROCS(prev)
		simpool.SetWorkers(0)
		if err != nil {
			t.Fatal(err)
		}
		if base.TraceHash != again.TraceHash {
			t.Fatalf("%s: hash changed across GOMAXPROCS/workers:\n%s\nvs\n%s",
				r.name, base.TraceHash, again.TraceHash)
		}
		if base.Events != again.Events {
			t.Fatalf("%s: event count changed: %d vs %d", r.name, base.Events, again.Events)
		}
	}
}

// TestScrambledSchedulesAreSafe feeds the runners deliberately incoherent
// schedules — restore before fail, restart without crash, double crash,
// faults on already-dead links — exactly what the shrinker produces when it
// removes arbitrary subsets. The state-tracked apply must keep every
// sequence well-defined (no panics) and violation-free.
func TestScrambledSchedulesAreSafe(t *testing.T) {
	scrambles := [][]Action{
		{{Kind: KindRestore, Steps: 10, At: 1, A: 0, B: 1}},
		{{Kind: KindRestart, Steps: 10, At: 1, Node: 3}},
		{
			{Kind: KindCrash, Steps: 20, At: 1, Node: 2},
			{Kind: KindCrash, Steps: 20, At: 2, Node: 2},
			{Kind: KindFail, Steps: 20, At: 2.5, A: 1, B: 2},
			{Kind: KindCost, Steps: 20, At: 3, A: 1, B: 2, Factor: 3},
			{Kind: KindRestart, Steps: 40, At: 4, Node: 2},
		},
		{
			{Kind: KindFail, Steps: 20, At: 1, A: 0, B: 1},
			{Kind: KindCrash, Steps: 20, At: 1.5, Node: 0},
			{Kind: KindRestore, Steps: 20, At: 2, A: 0, B: 1}, // endpoint still crashed
			{Kind: KindRestart, Steps: 40, At: 3, Node: 0},    // now the restore is due
		},
		{
			// Restart beside a crashed neighbor: link 0-1 cannot carry LSUs, so
			// the reborn router 0 must not announce it (the DES once did, and
			// sat ACTIVE for the rest of the run; the adjacency oracle fires).
			{Kind: KindCrash, Steps: 20, At: 1, Node: 0},
			{Kind: KindCrash, Steps: 20, At: 1.5, Node: 1},
			{Kind: KindRestart, Steps: 40, At: 3, Node: 0},
		},
	}
	runners := map[string]func(*Scenario) (*Result, error){"proto": RunProto, "des": RunDES}
	for i, actions := range scrambles {
		s := &Scenario{Name: "scramble", Topo: TopoNET1, Seed: uint64(i + 1), Flows: 3, Duration: 6, Actions: actions}
		for name, fn := range runners {
			res, err := fn(s)
			if err != nil {
				t.Fatalf("scramble %d %s: %v", i, name, err)
			}
			if res.Failed() {
				t.Fatalf("scramble %d %s: %v", i, name, res.Log.Violations)
			}
			// The adjacency oracle audits after every action and at the end.
			for _, c := range res.Log.Counts() {
				if c.Check == oracle.CheckAdjacencyName && c.Count != int64(len(actions)+1) {
					t.Fatalf("scramble %d %s: adjacency oracle ran %d times for %d actions", i, name, c.Count, len(actions))
				}
			}
		}
	}
}

// TestCrashWithoutRestartPartitionsState: a crashed router stays out of the
// quiescence and convergence checks, and the survivors still converge on the
// remaining topology.
func TestCrashWithoutRestart(t *testing.T) {
	s := &Scenario{Name: "perma-crash", Topo: TopoRing, TopoN: 6, Seed: 4, Flows: 3, Duration: 5,
		Actions: []Action{{Kind: KindCrash, Steps: 30, At: 1, Node: 2}}}
	res, err := RunProto(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("violations: %v", res.Log.Violations)
	}
	if !strings.Contains(res.Trace, "router 2 crashed") {
		t.Fatal("trace does not mark the crashed router")
	}
}

// TestPartitionAndHeal runs a full duplex partition through the protocol
// runner and heals it; convergence at quiescence covers Theorem 4 on the
// healed topology.
func TestPartitionAndHeal(t *testing.T) {
	s := &Scenario{Name: "partition", Topo: TopoRing, TopoN: 6, Seed: 5, Flows: 3, Duration: 6}
	net, err := s.Network()
	if err != nil {
		t.Fatal(err)
	}
	members := map[graph.NodeID]bool{0: true, 1: true, 2: true}
	cut := Partition(net.Graph, members, 40, 1)
	s.Actions = append(s.Actions, cut...)
	for _, a := range cut {
		s.Actions = append(s.Actions, Action{Kind: KindRestore, Steps: 60, At: 3, A: a.A, B: a.B})
	}
	res, err := RunProto(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("violations: %v", res.Log.Violations)
	}
	for _, c := range res.Log.Counts() {
		if c.Count == 0 {
			t.Fatalf("oracle %s never ran", c.Check)
		}
	}
}

// TestDESSkipsActionsBeyondDuration: an action scheduled after the run ends
// is recorded in the trace as skipped, not silently dropped.
func TestDESSkipsActionsBeyondDuration(t *testing.T) {
	s := &Scenario{Name: "late", Topo: TopoNET1, Seed: 6, Flows: 3, Duration: 2,
		Actions: []Action{{Kind: KindFail, Steps: 10, At: 50, A: 0, B: 1}}}
	res, err := RunDES(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Trace, "skip fail 0-1") {
		t.Fatal("trace does not record the skipped action")
	}
}

func TestRunnersRejectInvalidScenario(t *testing.T) {
	bad := &Scenario{Topo: "atlantis"}
	if _, err := RunProto(bad); err == nil {
		t.Fatal("RunProto accepted an invalid scenario")
	}
	if _, err := RunDES(bad); err == nil {
		t.Fatal("RunDES accepted an invalid scenario")
	}
}

// TestGeneratedScenariosPinned holds Generate(0..199), the scenarios of the
// `mdrsim -fuzz 200` sweep's range, through both runners, to the event count and trace hash it reported when
// testdata/generated_outcomes.txt was taken (one "seed runner events hash"
// line per run). A pin taken in another process catches everything a second
// run in this one would: the scenarios the hand-written one above does not
// resemble are the ones that found the unordered restart (a map range
// deciding the order of a node's LinkUps), which moves a seed's hash here.
//
// Regenerate after an intentional behavioral change with:
//
//	CHAOS_UPDATE=1 go test -run TestGeneratedScenariosPinned ./internal/chaos
func TestGeneratedScenariosPinned(t *testing.T) {
	runners := []struct {
		name string
		fn   func(*Scenario) (*Result, error)
	}{{"proto", RunProto}, {"des", RunDES}}
	got := make([]string, 200*len(runners))
	g := simpool.NewGroup()
	for seed := 0; seed < 200; seed++ {
		g.Go(func() error {
			s := Generate(uint64(seed))
			for i, r := range runners {
				res, err := r.fn(s)
				if err != nil {
					return fmt.Errorf("seed %d (%s): %w", seed, r.name, err)
				}
				got[seed*len(runners)+i] = fmt.Sprintf("%d %s %d %s", seed, r.name, res.Events, res.TraceHash)
			}
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "generated_outcomes.txt")
	if os.Getenv("CHAOS_UPDATE") != "" {
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with CHAOS_UPDATE=1 to create): %v", err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d runs, golden %s pins %d", len(got), golden, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("seed %d moved: got %q, golden has %q", i/len(runners), got[i], want[i])
		}
	}
}
