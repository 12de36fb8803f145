// Package chaos is the fault-injection harness: scripted schedules of
// topology and control-plane faults executed against the protocol-level
// harness (protonet + MPDA) and the packet simulator (core), with the
// invariant oracles of internal/oracle armed after every event. Scenarios
// are plain JSON, so a violating schedule found by the fuzzer (mdrsim -fuzz)
// can be shrunk to a minimal reproducer, checked in as a fixture, and
// replayed deterministically with mdrsim -chaos.
//
// The fault model, relative to the paper's assumptions (Section 2):
//
//   - Link failure/recovery and cost changes are the paper's own dynamics —
//     "the topology of the network changes with time" — delivered to both
//     endpoints as LinkDown/LinkUp/LinkCostChange events.
//   - Node crash/restart is modeled as all adjacent links failing at once,
//     plus total loss of the crashed router's protocol state; a restarted
//     router rejoins with empty tables, exactly like a newly booted one.
//   - Control-plane perturbation (loss, duplication, bounded delay) attacks
//     the layer beneath "messages ... are received correctly and in the
//     proper sequence": the protocol-level harness retries lost frames at
//     the head of the link queue and discards duplicate frames at the
//     receiver — the two halves of the ARQ protocol that earns the paper
//     its assumption. What the routing process observes is exactly-once,
//     in-order, eventually-delivered messages under perturbed timing; only
//     timeliness is relaxed. (MPDA genuinely requires exactly-once: its ACK
//     bookkeeping counts one acknowledgment per entry-bearing LSU, so a
//     duplicate surfacing above the ARQ layer would mint a spurious credit,
//     end an ACTIVE phase early, and break the loop-free invariant.)
package chaos

import (
	"encoding/json"
	"fmt"
	"os"

	"minroute/internal/graph"
	"minroute/internal/rng"
	"minroute/internal/topo"
)

// Kind enumerates the primitive fault actions. Composite fault classes
// (duplex partitions) compile down to these at generation time, so the
// runners and the shrinker only ever see primitives.
type Kind string

const (
	// KindFail takes the duplex link A↔B down.
	KindFail Kind = "fail"
	// KindRestore brings the duplex link A↔B back up.
	KindRestore Kind = "restore"
	// KindCost multiplies the cost of link A↔B by Factor (protocol harness)
	// or divides its capacity by Factor (packet simulator) — a congestion
	// spike seen through each runner's native cost signal.
	KindCost Kind = "cost"
	// KindCrash takes router Node down hard: adjacent links fail and all
	// protocol state is lost.
	KindCrash Kind = "crash"
	// KindRestart boots a crashed router from scratch.
	KindRestart Kind = "restart"
	// KindPerturb sets the control-plane perturbation (Loss/Dup) from this
	// point on. A no-op in the packet simulator, whose control band is
	// lossless by construction (the paper's reliable-delivery assumption).
	KindPerturb Kind = "perturb"
)

// Action is one scheduled fault. Steps positions it in protocol-level runs
// (delivery attempts to execute before applying); At positions it in
// packet-simulator runs (seconds). Both coordinates travel together so one
// scenario replays in either runner.
type Action struct {
	Kind  Kind    `json:"kind"`
	Steps int     `json:"steps,omitempty"`
	At    float64 `json:"at,omitempty"`
	// A, B name the duplex link for fail/restore/cost.
	A graph.NodeID `json:"a,omitempty"`
	B graph.NodeID `json:"b,omitempty"`
	// Node names the router for crash/restart.
	Node graph.NodeID `json:"node,omitempty"`
	// Factor scales cost (≥ 1 is a spike) for KindCost.
	Factor float64 `json:"factor,omitempty"`
	// Loss and Dup are the perturbation probabilities for KindPerturb.
	Loss float64 `json:"loss,omitempty"`
	Dup  float64 `json:"dup,omitempty"`
}

func (a Action) String() string {
	switch a.Kind {
	case KindFail, KindRestore:
		return fmt.Sprintf("%s %d-%d", a.Kind, a.A, a.B)
	case KindCost:
		return fmt.Sprintf("cost %d-%d x%g", a.A, a.B, a.Factor)
	case KindCrash, KindRestart:
		return fmt.Sprintf("%s %d", a.Kind, a.Node)
	case KindPerturb:
		return fmt.Sprintf("perturb loss=%g dup=%g", a.Loss, a.Dup)
	}
	return string(a.Kind)
}

// Topology names accepted by Scenario.Topo.
const (
	TopoNET1   = "net1"
	TopoCAIRN  = "cairn"
	TopoRing   = "ring"
	TopoGrid   = "grid"
	TopoRandom = "random"
)

// Scenario is a complete, replayable chaos schedule.
type Scenario struct {
	Name string `json:"name"`
	// Topo selects the topology: net1, cairn, ring, grid, or random.
	Topo string `json:"topo"`
	// Seed drives every random choice of the run (interleaving, traffic).
	Seed uint64 `json:"seed"`
	// TopoSeed/TopoN/TopoExtra parameterize the random topology (and TopoN
	// sizes ring/grid variants). Ignored for net1/cairn.
	TopoSeed  uint64 `json:"toposeed,omitempty"`
	TopoN     int    `json:"topon,omitempty"`
	TopoExtra int    `json:"topoextra,omitempty"`
	// Flows is how many random flows the packet simulator offers (net1 and
	// cairn default to their configured demand sets when zero).
	Flows int `json:"flows,omitempty"`
	// Duration is the packet-simulator run length in seconds.
	Duration float64 `json:"duration"`
	// Actions is the fault schedule, applied in order.
	Actions []Action `json:"actions"`
}

// Load reads a scenario from a JSON file.
func Load(path string) (*Scenario, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &Scenario{}
	if err := json.Unmarshal(buf, s); err != nil {
		return nil, fmt.Errorf("chaos: parse %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("chaos: %s: %w", path, err)
	}
	return s, nil
}

// Save writes the scenario as indented JSON.
func (s *Scenario) Save(path string) error {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// Network materializes the scenario's topology and demand set. Random
// flows (for topologies without a configured demand set, or when Flows
// overrides it) are drawn from a stream split off the scenario seed, so
// the demand is part of the replayable identity of the scenario.
func (s *Scenario) Network() (*topo.Network, error) {
	var g *graph.Graph
	var flows []topo.Flow
	switch s.Topo {
	case TopoNET1:
		n := topo.NET1()
		g, flows = n.Graph, n.Flows
	case TopoCAIRN:
		n := topo.CAIRN()
		g, flows = n.Graph, n.Flows
	case TopoRing:
		n := s.TopoN
		if n < 3 {
			n = 6
		}
		g = topo.Ring(n, 5e6, 1e-3)
	case TopoGrid:
		n := s.TopoN
		if n < 2 {
			n = 3
		}
		g = topo.Grid(n, n, 5e6, 1e-3)
	case TopoRandom:
		n := s.TopoN
		if n < 4 {
			n = 8
		}
		extra := s.TopoExtra
		if extra <= 0 {
			extra = n / 2
		}
		g = topo.Random(s.TopoSeed, n, extra, 2e6, 10e6, 2e-3)
	default:
		return nil, fmt.Errorf("chaos: unknown topology %q", s.Topo)
	}
	if s.Flows > 0 || len(flows) == 0 {
		flows = randomFlows(g, s.Seed, s.Flows)
	}
	return &topo.Network{Graph: g, Flows: flows}, nil
}

func randomFlows(g *graph.Graph, seed uint64, count int) []topo.Flow {
	if count <= 0 {
		count = 4
	}
	r := rng.New(seed).Split(0xf10d)
	n := g.NumNodes()
	flows := make([]topo.Flow, 0, count)
	for x := 0; x < count; x++ {
		src := graph.NodeID(r.Intn(n))
		dst := graph.NodeID(r.Intn(n))
		if src == dst {
			dst = graph.NodeID((int(dst) + 1) % n)
		}
		flows = append(flows, topo.Flow{
			Name: fmt.Sprintf("f%d:%d->%d", x, src, dst),
			Src:  src,
			Dst:  dst,
			Rate: (100 + 100*r.Float64()) * 1e3,
		})
	}
	return flows
}

// Validate checks that every action is well-formed for the scenario's
// topology: known kinds, in-range endpoints, links that exist in the base
// graph, positive factors, probabilities below one.
func (s *Scenario) Validate() error {
	net, err := s.Network()
	if err != nil {
		return err
	}
	g := net.Graph
	n := g.NumNodes()
	for i, a := range s.Actions {
		switch a.Kind {
		case KindFail, KindRestore, KindCost:
			if a.A == a.B || int(a.A) >= n || int(a.B) >= n || a.A < 0 || a.B < 0 {
				return fmt.Errorf("chaos: action %d (%s): bad endpoints", i, a)
			}
			if _, ok := g.Link(a.A, a.B); !ok {
				return fmt.Errorf("chaos: action %d (%s): no such link in base topology", i, a)
			}
			if a.Kind == KindCost && !(a.Factor > 0) {
				return fmt.Errorf("chaos: action %d (%s): factor must be positive", i, a)
			}
		case KindCrash, KindRestart:
			if a.Node < 0 || int(a.Node) >= n {
				return fmt.Errorf("chaos: action %d (%s): bad node", i, a)
			}
		case KindPerturb:
			if a.Loss < 0 || a.Loss >= 1 || a.Dup < 0 || a.Dup >= 1 {
				return fmt.Errorf("chaos: action %d (%s): probabilities must be in [0,1)", i, a)
			}
		default:
			return fmt.Errorf("chaos: action %d: unknown kind %q", i, a.Kind)
		}
		if a.Steps < 0 || a.At < 0 {
			return fmt.Errorf("chaos: action %d (%s): negative schedule coordinate", i, a)
		}
	}
	return nil
}

// duplexLinks lists g's duplex links once each, as (lower, higher) endpoint
// pairs in g.Links order.
func duplexLinks(g *graph.Graph) [][2]graph.NodeID {
	var out [][2]graph.NodeID
	for _, l := range g.Links() {
		if l.From < l.To {
			out = append(out, [2]graph.NodeID{l.From, l.To})
		}
	}
	return out
}

// Partition compiles a duplex partition fault into primitive fail actions:
// every link crossing the cut between members and the rest of g fails at
// the same schedule point. members is the characteristic set of one side.
func Partition(g *graph.Graph, members map[graph.NodeID]bool, steps int, at float64) []Action {
	var out []Action
	for _, l := range g.Links() {
		if l.From < l.To && members[l.From] != members[l.To] {
			out = append(out, Action{Kind: KindFail, Steps: steps, At: at, A: l.From, B: l.To})
		}
	}
	return out
}
