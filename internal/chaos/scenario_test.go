package chaos

import (
	"path/filepath"
	"reflect"
	"testing"

	"minroute/internal/graph"
)

func TestValidateRejectsMalformedActions(t *testing.T) {
	cases := []struct {
		name string
		act  Action
	}{
		{"self-link", Action{Kind: KindFail, A: 1, B: 1}},
		{"out-of-range", Action{Kind: KindFail, A: 0, B: 99}},
		{"negative-endpoint", Action{Kind: KindRestore, A: -1, B: 2}},
		{"missing-link", Action{Kind: KindFail, A: 0, B: 5}}, // NET1 has no 0-5 link
		{"zero-factor", Action{Kind: KindCost, A: 0, B: 1, Factor: 0}},
		{"bad-node", Action{Kind: KindCrash, Node: 99}},
		{"loss-too-high", Action{Kind: KindPerturb, Loss: 1}},
		{"negative-dup", Action{Kind: KindPerturb, Dup: -0.1}},
		{"unknown-kind", Action{Kind: "meltdown"}},
		{"negative-steps", Action{Kind: KindCrash, Node: 1, Steps: -1}},
		{"negative-at", Action{Kind: KindCrash, Node: 1, At: -2}},
	}
	for _, tc := range cases {
		s := &Scenario{Name: tc.name, Topo: TopoNET1, Duration: 5, Actions: []Action{tc.act}}
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.act)
		}
	}
	if err := (&Scenario{Topo: "atlantis"}).Validate(); err == nil {
		t.Error("Validate accepted an unknown topology")
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	s := Generate(42)
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("roundtrip mismatch:\nsaved  %+v\nloaded %+v", s, got)
	}
}

func TestLoadRejectsInvalid(t *testing.T) {
	dir := t.TempDir()
	bad := &Scenario{Name: "bad", Topo: TopoNET1, Duration: 1,
		Actions: []Action{{Kind: KindFail, A: 0, B: 0}}}
	path := filepath.Join(dir, "bad.json")
	if err := bad.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load accepted an invalid scenario")
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("Load accepted a missing file")
	}
}

func TestNetworkTopologies(t *testing.T) {
	cases := []struct {
		s     Scenario
		nodes int
	}{
		{Scenario{Topo: TopoNET1}, 10},
		{Scenario{Topo: TopoCAIRN}, 26},
		{Scenario{Topo: TopoRing}, 6},            // defaulted size
		{Scenario{Topo: TopoRing, TopoN: 5}, 5},  // explicit size
		{Scenario{Topo: TopoGrid}, 9},            // 3x3 default
		{Scenario{Topo: TopoGrid, TopoN: 4}, 16}, // 4x4
		{Scenario{Topo: TopoRandom}, 8},          // defaulted size
		{Scenario{Topo: TopoRandom, TopoN: 10, TopoExtra: 3}, 10},
	}
	for _, tc := range cases {
		net, err := tc.s.Network()
		if err != nil {
			t.Fatalf("%s: %v", tc.s.Topo, err)
		}
		if got := net.Graph.NumNodes(); got != tc.nodes {
			t.Errorf("%s (n=%d): %d nodes, want %d", tc.s.Topo, tc.s.TopoN, got, tc.nodes)
		}
		if len(net.Flows) == 0 {
			t.Errorf("%s: no flows", tc.s.Topo)
		}
	}
}

func TestNetworkFlowsAreSeedDeterministic(t *testing.T) {
	a := Scenario{Topo: TopoRing, Seed: 9, Flows: 5}
	b := Scenario{Topo: TopoRing, Seed: 9, Flows: 5}
	na, _ := a.Network()
	nb, _ := b.Network()
	if !reflect.DeepEqual(na.Flows, nb.Flows) {
		t.Fatal("same seed produced different flows")
	}
	c := Scenario{Topo: TopoRing, Seed: 10, Flows: 5}
	nc, _ := c.Network()
	if reflect.DeepEqual(na.Flows, nc.Flows) {
		t.Fatal("different seeds produced identical flows")
	}
}

func TestPartitionCutsExactlyTheCrossingLinks(t *testing.T) {
	s := Scenario{Topo: TopoRing, TopoN: 6}
	net, _ := s.Network()
	members := map[graph.NodeID]bool{0: true, 1: true, 2: true}
	cut := Partition(net.Graph, members, 10, 1.5)
	// Ring 0-1-2-3-4-5-0: the cut {0,1,2}|{3,4,5} crosses links 2-3 and 0-5.
	if len(cut) != 2 {
		t.Fatalf("cut has %d actions, want 2: %v", len(cut), cut)
	}
	for _, a := range cut {
		if a.Kind != KindFail || a.Steps != 10 || a.At != 1.5 {
			t.Fatalf("bad compiled action %+v", a)
		}
		if members[a.A] == members[a.B] {
			t.Fatalf("action %v does not cross the cut", a)
		}
	}
}

func TestGenerateScenariosAreValidAndDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		s := Generate(seed)
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(s.Actions) == 0 {
			t.Fatalf("seed %d: empty schedule", seed)
		}
		if !reflect.DeepEqual(s, Generate(seed)) {
			t.Fatalf("seed %d: Generate is not deterministic", seed)
		}
	}
}
