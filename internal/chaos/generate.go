package chaos

import (
	"fmt"

	"minroute/internal/graph"
	"minroute/internal/rng"
)

// Generate derives a random but valid scenario from seed: a topology drawn
// from {net1, cairn, random}, a fault schedule of link flaps, cost spikes,
// crash/restart pairs, duplex partitions (compiled to primitive fails), and
// control-plane perturbation. The generator tracks the effective fault
// state so restores and restarts reference faults that actually happened —
// schedules are interesting, not just syntactically valid.
func Generate(seed uint64) *Scenario {
	r := rng.New(seed)
	s := &Scenario{
		Name:     fmt.Sprintf("gen-%d", seed),
		Seed:     seed,
		Duration: 8 + 4*r.Float64(),
		Flows:    3 + r.Intn(3),
	}
	switch pick := r.Intn(10); {
	case pick < 5:
		s.Topo = TopoNET1
	case pick < 7:
		s.Topo = TopoCAIRN
	default:
		s.Topo = TopoRandom
		s.TopoSeed = r.Uint64()
		s.TopoN = 8 + r.Intn(5)
		s.TopoExtra = 3 + r.Intn(4)
	}
	tn, err := s.Network()
	if err != nil {
		panic("chaos: Generate built invalid topology: " + err.Error())
	}
	g := tn.Graph

	links := duplexLinks(g)
	failed := make(map[[2]graph.NodeID]bool)
	crashed := make(map[graph.NodeID]bool)
	var failedList [][2]graph.NodeID
	var crashedList []graph.NodeID

	count := 2 + r.Intn(7)
	maxAt := s.Duration * 0.7
	for i := 0; i < count; i++ {
		steps := 50 + r.Intn(400)
		at := 0.5 + r.Float64()*maxAt
		switch k := r.Intn(20); {
		case k < 2:
			// Duplex partition: cut a random nonempty proper subset off.
			members := make(map[graph.NodeID]bool)
			size := 1 + r.Intn(g.NumNodes()/2)
			for _, idx := range r.Perm(g.NumNodes())[:size] {
				members[graph.NodeID(idx)] = true
			}
			cut := Partition(g, members, steps, at)
			for _, a := range cut {
				key := linkKey(a.A, a.B)
				if !failed[key] {
					failed[key] = true
					failedList = append(failedList, key)
				}
			}
			s.Actions = append(s.Actions, cut...)
		case k < 7:
			key := links[r.Intn(len(links))]
			s.Actions = append(s.Actions, Action{Kind: KindFail, Steps: steps, At: at, A: key[0], B: key[1]})
			if !failed[key] {
				failed[key] = true
				failedList = append(failedList, key)
			}
		case k < 11 && len(failedList) > 0:
			key := failedList[r.Intn(len(failedList))]
			s.Actions = append(s.Actions, Action{Kind: KindRestore, Steps: steps, At: at, A: key[0], B: key[1]})
			failed[key] = false
		case k < 15:
			l := links[r.Intn(len(links))]
			s.Actions = append(s.Actions, Action{
				Kind: KindCost, Steps: steps, At: at, A: l[0], B: l[1],
				Factor: 2 + 8*r.Float64(),
			})
		case k < 17:
			v := graph.NodeID(r.Intn(g.NumNodes()))
			if !crashed[v] {
				crashed[v] = true
				crashedList = append(crashedList, v)
			}
			s.Actions = append(s.Actions, Action{Kind: KindCrash, Steps: steps, At: at, Node: v})
		case k < 18 && len(crashedList) > 0:
			v := crashedList[r.Intn(len(crashedList))]
			s.Actions = append(s.Actions, Action{Kind: KindRestart, Steps: steps, At: at, Node: v})
			crashed[v] = false
		default:
			s.Actions = append(s.Actions, Action{
				Kind: KindPerturb, Steps: steps, At: at,
				Loss: 0.1 + 0.3*r.Float64(),
				Dup:  0.2 * r.Float64(),
			})
		}
	}
	return s
}
