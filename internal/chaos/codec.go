package chaos

import (
	"slices"

	"minroute/internal/graph"
)

// The byte codec is the grammar the native Go fuzzer mutates: any byte
// string decodes to a valid scenario (the decoder is total — every field is
// taken modulo its legal range), and Encode is its inverse on the canonical
// subset the decoder produces, so seed corpora can be emitted from
// generated scenarios. The fuzz grammar deliberately sticks to small
// topologies so the 10-second smoke budget covers many executions.

// codecTopos is the topology alphabet of the byte grammar.
var codecTopos = []string{TopoNET1, TopoRing, TopoGrid, TopoRandom}

const (
	codecHeader     = 3  // topo byte + 2 seed bytes
	codecRecord     = 5  // kind, ref1, ref2, steps, magnitude
	codecMaxActions = 16 // caps schedule length whatever the input size
)

var codecKinds = []Kind{KindFail, KindRestore, KindCost, KindCrash, KindRestart, KindPerturb}

// FromBytes decodes data into a valid scenario. The decoder is total: any
// input (including empty) yields a scenario that passes Validate.
func FromBytes(data []byte) *Scenario {
	s := &Scenario{Name: "fuzz", Duration: 2, Flows: 3}
	if len(data) < codecHeader {
		s.Topo = TopoNET1
		return s
	}
	s.Topo = codecTopos[int(data[0])%len(codecTopos)]
	if s.Topo == TopoRandom {
		// Small fixed-size random topology; the seed byte picks the shape.
		s.TopoSeed = uint64(data[1])
		s.TopoN = 8
		s.TopoExtra = 4
	}
	s.Seed = uint64(data[1]) | uint64(data[2])<<8
	tn, err := s.Network()
	if err != nil {
		panic("chaos: FromBytes built invalid topology: " + err.Error())
	}
	g := tn.Graph
	links := duplexLinks(g)

	rest := data[codecHeader:]
	for len(rest) >= codecRecord && len(s.Actions) < codecMaxActions {
		rec := rest[:codecRecord]
		rest = rest[codecRecord:]
		kind := codecKinds[int(rec[0])%len(codecKinds)]
		steps := int(rec[3]) * 8
		act := Action{Kind: kind, Steps: steps, At: float64(steps) / 400}
		switch kind {
		case KindFail, KindRestore, KindCost:
			l := links[(int(rec[1])|int(rec[2])<<8)%len(links)]
			act.A, act.B = l[0], l[1]
			if kind == KindCost {
				act.Factor = 1 + float64(rec[4]%16)
			}
		case KindCrash, KindRestart:
			act.Node = graph.NodeID(int(rec[1]) % g.NumNodes())
		case KindPerturb:
			act.Loss = float64(rec[4]%8) * 0.06
			act.Dup = float64(rec[4]%4) * 0.05
		}
		s.Actions = append(s.Actions, act)
	}
	return s
}

// Encode produces bytes that FromBytes decodes back to an equivalent
// scenario, for scenarios on the codec's canonical grid (small topologies,
// the quantized steps/factor/probability values the decoder emits). It is
// the corpus-seeding half of the grammar.
func Encode(s *Scenario) []byte {
	// An unknown topology, kind or link encodes as the first of its alphabet.
	out := []byte{byte(max(slices.Index(codecTopos, s.Topo), 0)), byte(s.Seed), byte(s.Seed >> 8)}
	tn, err := s.Network()
	if err != nil {
		return out
	}
	links := duplexLinks(tn.Graph)
	for _, act := range s.Actions {
		if len(out) >= codecHeader+codecMaxActions*codecRecord {
			break
		}
		rec := [codecRecord]byte{byte(max(slices.Index(codecKinds, act.Kind), 0)), 0, 0, byte(act.Steps / 8), 0}
		switch act.Kind {
		case KindFail, KindRestore, KindCost:
			idx := max(slices.Index(links, linkKey(act.A, act.B)), 0)
			rec[1], rec[2] = byte(idx), byte(idx>>8)
			if act.Kind == KindCost {
				rec[4] = byte(int(act.Factor-1) % 16)
			}
		case KindCrash, KindRestart:
			rec[1] = byte(act.Node)
		case KindPerturb:
			rec[4] = byte(int(act.Loss/0.06)%8) | byte(int(act.Dup/0.05)%4)
		}
		out = append(out, rec[:]...)
	}
	return out
}
