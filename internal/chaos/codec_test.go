package chaos

import (
	"reflect"
	"testing"

	"minroute/internal/rng"
)

// TestFromBytesIsTotal: every byte string — including empty, truncated, and
// random garbage — must decode to a scenario that passes Validate. The fuzz
// harness depends on this: mutated inputs go straight into the runners.
func TestFromBytesIsTotal(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},
		{0xff, 0xff},
		{1, 2, 3},
		{3, 7, 9, 0xfe},          // random topo, truncated record
		{2, 0, 0, 0, 0, 0, 0, 0}, // grid, one record
		{0xaa, 0xbb, 0xcc, 5, 4, 3, 2, 1, 0, 9, 8, 7, 6, 5},
	}
	r := rng.New(77)
	for i := 0; i < 50; i++ {
		buf := make([]byte, r.Intn(64))
		for j := range buf {
			buf[j] = byte(r.Intn(256))
		}
		cases = append(cases, buf)
	}
	for _, data := range cases {
		s := FromBytes(data)
		if err := s.Validate(); err != nil {
			t.Fatalf("FromBytes(%v) is invalid: %v", data, err)
		}
	}
}

func TestFromBytesEmptyDefaults(t *testing.T) {
	s := FromBytes(nil)
	if s.Topo != TopoNET1 || len(s.Actions) != 0 {
		t.Fatalf("empty input decoded to %+v", s)
	}
}

// TestEncodeRoundtrip: Encode is FromBytes' inverse on the decoder's own
// canonical grid, so corpus seeds can be minted from generated scenarios.
func TestEncodeRoundtrip(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		s := FromBytes(encodeProbe(seed))
		back := FromBytes(Encode(s))
		if !reflect.DeepEqual(s.Actions, back.Actions) || s.Topo != back.Topo || s.Seed != back.Seed {
			t.Fatalf("roundtrip mismatch for probe %d:\n%+v\nvs\n%+v", seed, s, back)
		}
	}
}

// encodeProbe deterministically builds byte strings covering every action
// kind and topology for the roundtrip test.
func encodeProbe(seed uint64) []byte {
	r := rng.New(seed)
	buf := []byte{byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))}
	records := 1 + r.Intn(6)
	for i := 0; i < records; i++ {
		for j := 0; j < codecRecord; j++ {
			buf = append(buf, byte(r.Intn(256)))
		}
	}
	return buf
}

func TestFromBytesCapsActions(t *testing.T) {
	data := make([]byte, codecHeader+(codecMaxActions+10)*codecRecord)
	s := FromBytes(data)
	if len(s.Actions) != codecMaxActions {
		t.Fatalf("decoded %d actions, want cap %d", len(s.Actions), codecMaxActions)
	}
}
