package chaos

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"minroute/internal/graph"
	"minroute/internal/telemetry"
)

// TestTelemetryFixtureGolden replays one regression fixture with telemetry
// capture enabled and compares the merged event log, byte for byte, against
// a checked-in JSONL golden. This pins down the full event taxonomy for a
// real chaos run — phase flips, LSU traffic, table commits, and the injected
// faults — so any drift in event ordering, sequencing, or encoding shows up
// as a diff rather than a silent change.
//
// Regenerate after an intentional behavioral change with:
//
//	CHAOS_UPDATE=1 go test -run TestTelemetryFixtureGolden ./internal/chaos
func TestTelemetryFixtureGolden(t *testing.T) {
	path := filepath.Join("testdata", "regress-dup-ack-credit.json")
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := s.Network()
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.NewCapture(tn.Graph.NumNodes())
	res, err := RunProtoWith(s, tel)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("fixture violates invariants: %v", res.Log.Violations)
	}
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, tel.Trace.Events()); err != nil {
		t.Fatal(err)
	}
	if tel.Trace.Emitted() == 0 {
		t.Fatal("telemetry capture recorded no events")
	}
	golden := filepath.Join("testdata", "regress-dup-ack-credit.events.jsonl")
	if os.Getenv("CHAOS_UPDATE") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with CHAOS_UPDATE=1 to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("telemetry event log drifted from golden %s (got %d bytes, want %d); rerun with CHAOS_UPDATE=1 if intentional",
			golden, buf.Len(), len(want))
	}
}

// TestPhasePassiveCarriesActiveDuration holds both runners to the event
// schema: a phase_passive event's value is the ACTIVE phase it ends, its
// time minus that router's preceding phase_active time, in the runner's
// own timebase (delivery attempts for the protocol harness, seconds for
// the DES).
func TestPhasePassiveCarriesActiveDuration(t *testing.T) {
	s, err := Load(filepath.Join("testdata", "regress-dup-ack-credit.json"))
	if err != nil {
		t.Fatal(err)
	}
	tn, err := s.Network()
	if err != nil {
		t.Fatal(err)
	}
	runners := []struct {
		name string
		run  func(*Scenario, *telemetry.Capture) (*Result, error)
	}{{"proto", RunProtoWith}, {"des", RunDESWith}}
	for _, r := range runners {
		t.Run(r.name, func(t *testing.T) {
			tel := telemetry.NewCapture(tn.Graph.NumNodes())
			if _, err := r.run(s, tel); err != nil {
				t.Fatal(err)
			}
			activeAt := map[graph.NodeID]float64{}
			passives := 0
			for _, ev := range tel.Trace.Events() {
				switch ev.Kind {
				case telemetry.KindPhaseActive:
					activeAt[ev.Router] = ev.T
				case telemetry.KindPhasePassive:
					passives++
					start, ok := activeAt[ev.Router]
					if !ok {
						t.Fatalf("router %d: phase_passive at %v with no phase_active before it", ev.Router, ev.T)
					}
					if want := ev.T - start; ev.Value != want {
						t.Fatalf("router %d: phase_passive at %v carries %v, want %v (ACTIVE since %v)",
							ev.Router, ev.T, ev.Value, want, start)
					}
				}
			}
			if passives == 0 {
				t.Fatal("capture holds no phase_passive event")
			}
		})
	}
}
