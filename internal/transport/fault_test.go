package transport

import (
	"encoding/binary"
	"slices"
	"testing"
)

// tape is a Medium that records the index each written datagram carries,
// whichever face wrote it.
type tape struct{ got []int }

func (tp *tape) WritePacket(b []byte) error {
	tp.got = append(tp.got, int(binary.BigEndian.Uint32(b)))
	return nil
}
func (tp *tape) WriteTo(b []byte, _ string) error { return tp.WritePacket(b) }
func (tp *tape) ReadPacket([]byte) (int, error)   { return 0, ErrClosed }
func (tp *tape) ReadFrom([]byte) (int, error)     { return 0, ErrClosed }
func (tp *tape) LocalAddr() string                { return "tape" }
func (tp *tape) Close() error                     { return nil }

// faultsOf reads a recording of writes 0..n-1 back into which were lost
// (never arrived), duplicated (arrived twice) and swapped (first arrived
// after a later write).
func faultsOf(got []int, n int) (lost, dup, swapped []int) {
	seen := make([]int, n)
	latest := -1
	for _, i := range got {
		if seen[i] == 0 && i < latest {
			swapped = append(swapped, i)
		}
		if seen[i] == 1 {
			dup = append(dup, i)
		}
		seen[i]++
		latest = max(latest, i)
	}
	for i, c := range seen {
		if c == 0 {
			lost = append(lost, i)
		}
	}
	return lost, dup, swapped
}

// TestFaultSequencePinned pins which of 1,000 seeded writes the injector
// loses, duplicates and swaps, on both faces. The lists were taken from
// the two injectors that preceded the shared one (the lane's, which drew
// loss, reorder, duplication; the port's, which drew loss, duplication
// and ignored ReorderProb), so every seeded run of either keeps its fault
// positions.
func TestFaultSequencePinned(t *testing.T) {
	const n = 1000
	cases := []struct {
		name               string
		fault              Fault
		write              func(m Medium, b []byte) error
		lost, dup, swapped []int
	}{
		{
			name:    "packet",
			fault:   Fault{Seed: 29, LossProb: 0.02, DupProb: 0.02, ReorderProb: 0.02},
			write:   func(m Medium, b []byte) error { return m.WritePacket(b) },
			lost:    []int{47, 52, 54, 69, 71, 98, 125, 131, 157, 199, 214, 275, 305, 316, 402, 534, 546, 560, 579, 580, 588, 766, 775, 820, 863, 884},
			dup:     []int{66, 82, 99, 107, 169, 411, 455, 465, 467, 539, 540, 606, 744, 807, 811, 870, 957, 985},
			swapped: []int{1, 122, 300, 312, 384, 433, 437, 474, 489, 511, 536, 660, 687, 758, 792, 837, 841, 899, 911, 933, 952},
		},
		{
			name:  "datagram",
			fault: Fault{Seed: 30, LossProb: 0.02, DupProb: 0.02},
			write: func(m Medium, b []byte) error { return m.WriteTo(b, "tape") },
			lost:  []int{391, 425, 563, 621, 658, 685, 747, 767, 859, 870, 882, 966},
			dup:   []int{0, 37, 149, 191, 316, 365, 392, 402, 454, 459, 468, 559, 573, 642, 653, 755, 792, 841, 847, 877, 937, 979},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tp := &tape{}
			m := WithFaults(tp, c.fault)
			b := make([]byte, 4)
			for i := 0; i < n; i++ {
				binary.BigEndian.PutUint32(b, uint32(i))
				if err := c.write(m, b); err != nil {
					t.Fatal(err)
				}
			}
			lost, dup, swapped := faultsOf(tp.got, n)
			for _, f := range []struct {
				kind      string
				got, want []int
			}{{"lost", lost, c.lost}, {"duplicated", dup, c.dup}, {"swapped", swapped, c.swapped}} {
				if !slices.Equal(f.got, f.want) {
					t.Errorf("%s writes %v, want %v", f.kind, f.got, f.want)
				}
			}
		})
	}
}
