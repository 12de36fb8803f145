package traffic

import (
	"math"
	"testing"

	"minroute/internal/des"
	"minroute/internal/rng"
	"minroute/internal/transport"
)

// onEngine adapts a DES engine to the scheduling seam, as core.Build does.
func onEngine(eng *des.Engine) After {
	return func(d float64, fn func()) { eng.After(d, fn) }
}

// measure runs src for dur seconds and returns (packets, totalBits).
func measure(t *testing.T, src Source, seed uint64, dur float64) (int, float64) {
	t.Helper()
	eng := des.NewEngine(seed)
	n, bits := 0, 0.0
	src.Start(onEngine(eng), rng.New(seed), func(b float64) {
		n++
		bits += b
	})
	eng.Run(dur)
	return n, bits
}

func TestPoissonAverageRate(t *testing.T) {
	const rate, mean = 2e6, 8000.0
	n, bits := measure(t, Poisson{RateBits: rate, MeanPacketBits: mean}, 1, 100)
	gotRate := bits / 100
	if rel := math.Abs(gotRate-rate) / rate; rel > 0.05 {
		t.Fatalf("poisson rate = %v, want %v (rel %v)", gotRate, rate, rel)
	}
	wantPkts := rate / mean * 100
	if rel := math.Abs(float64(n)-wantPkts) / wantPkts; rel > 0.05 {
		t.Fatalf("poisson packets = %d, want ~%v", n, wantPkts)
	}
}

func TestPoissonExponentialSizes(t *testing.T) {
	const mean = 8000.0
	eng := des.NewEngine(2)
	var sizes []float64
	Poisson{RateBits: 1e6, MeanPacketBits: mean}.Start(onEngine(eng), rng.New(2), func(b float64) {
		sizes = append(sizes, b)
	})
	eng.Run(200)
	sum, sumSq := 0.0, 0.0
	for _, s := range sizes {
		sum += s
		sumSq += s * s
	}
	n := float64(len(sizes))
	m := sum / n
	v := sumSq/n - m*m
	// Exponential: variance = mean^2.
	if math.Abs(m-mean)/mean > 0.05 {
		t.Fatalf("mean size = %v", m)
	}
	if math.Abs(v-mean*mean)/(mean*mean) > 0.15 {
		t.Fatalf("size variance = %v, want ~%v", v, mean*mean)
	}
}

func TestPoissonZeroRateNoOp(t *testing.T) {
	if n, _ := measure(t, Poisson{RateBits: 0, MeanPacketBits: 8000}, 3, 10); n != 0 {
		t.Fatalf("zero-rate source emitted %d packets", n)
	}
	if n, _ := measure(t, Poisson{RateBits: 1e6, MeanPacketBits: 0}, 3, 10); n != 0 {
		t.Fatalf("zero-size source emitted %d packets", n)
	}
}

func TestOnOffLongRunAverage(t *testing.T) {
	const rate = 2e6
	src := OnOff{RateBits: rate, MeanPacketBits: 8000, PeakFactor: 4, MeanOn: 0.25}
	_, bits := measure(t, src, 4, 500)
	gotRate := bits / 500
	if rel := math.Abs(gotRate-rate) / rate; rel > 0.10 {
		t.Fatalf("on-off long-run rate = %v, want %v (rel %v)", gotRate, rate, rel)
	}
}

func TestOnOffIsBursty(t *testing.T) {
	// Count packets per 100 ms bin; an on-off source must show bins near
	// zero and bins near the peak rate.
	src := OnOff{RateBits: 2e6, MeanPacketBits: 8000, PeakFactor: 4, MeanOn: 0.5}
	eng := des.NewEngine(5)
	bins := make([]int, 600)
	src.Start(onEngine(eng), rng.New(5), func(b float64) {
		idx := int(eng.Now() * 10)
		if idx < len(bins) {
			bins[idx]++
		}
	})
	eng.Run(60)
	quiet, busy := 0, 0
	peakPer100ms := 2e6 * 4 / 8000 / 10 // 100 pkts
	for _, c := range bins {
		if c == 0 {
			quiet++
		}
		if float64(c) > 0.5*peakPer100ms {
			busy++
		}
	}
	if quiet < 50 || busy < 50 {
		t.Fatalf("not bursty: %d quiet bins, %d busy bins", quiet, busy)
	}
}

func TestOnOffDefaults(t *testing.T) {
	// PeakFactor <= 1 and MeanOn <= 0 fall back to sane defaults.
	src := OnOff{RateBits: 1e6, MeanPacketBits: 8000, PeakFactor: 0.5, MeanOn: -1}
	n, _ := measure(t, src, 6, 100)
	if n == 0 {
		t.Fatal("defaulted on-off source emitted nothing")
	}
}

func TestCBRDeterministicSpacing(t *testing.T) {
	eng := des.NewEngine(7)
	var times []float64
	CBR{RateBits: 8e5, PacketBits: 8000}.Start(onEngine(eng), rng.New(7), func(b float64) {
		if b != 8000 {
			t.Fatalf("CBR size = %v", b)
		}
		times = append(times, eng.Now())
	})
	eng.Run(1)
	if len(times) < 50 {
		t.Fatalf("CBR emitted %d packets in 1s, want ~100", len(times))
	}
	gap := 8000.0 / 8e5
	for i := 2; i < len(times); i++ {
		if math.Abs((times[i]-times[i-1])-gap) > 1e-9 {
			t.Fatalf("CBR gap %v at %d, want %v", times[i]-times[i-1], i, gap)
		}
	}
}

func TestCBRZeroRateNoOp(t *testing.T) {
	if n, _ := measure(t, CBR{RateBits: 0, PacketBits: 8000}, 8, 10); n != 0 {
		t.Fatal("zero-rate CBR emitted packets")
	}
}

func TestAdversaryLongRunAverage(t *testing.T) {
	const rate = 2e6
	src := Adversary{RateBits: rate, PacketBits: 8000, PeakFactor: 4, OnLen: 0.25}
	_, bits := measure(t, src, 9, 500)
	gotRate := bits / 500
	if rel := math.Abs(gotRate-rate) / rate; rel > 0.05 {
		t.Fatalf("adversary long-run rate = %v, want %v (rel %v)", gotRate, rate, rel)
	}
}

// TestAdversaryIsLockstep: two adversary sources with different rng streams
// fire the identical schedule — the model has no jitter to draw.
func TestAdversaryIsLockstep(t *testing.T) {
	src := Adversary{RateBits: 1e6, PacketBits: 8000}
	a, b := emissions(src, 1, des.NewEngine(1)), emissions(src, 2, des.NewEngine(2))
	if len(a) == 0 || !sameEmissions(a, b) {
		t.Fatalf("adversary schedules differ across seeds (%d vs %d emissions)", len(a), len(b))
	}
}

type emission struct{ at, bits float64 }

func sameEmissions(a, b []emission) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		//lint:floateq-ok the seam promises bit-identical schedules, not close ones
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// emissions runs src for 20 s on a DES engine and records every packet.
func emissions(src Source, seed uint64, eng *des.Engine) []emission {
	var out []emission
	src.Start(onEngine(eng), rng.New(seed), func(bits float64) {
		out = append(out, emission{eng.Now(), bits})
	})
	eng.Run(20)
	return out
}

// TestSourcesSubstrateNeutral pins the scheduling seam: every model, given
// the same seed, emits the identical (time, bits) sequence whether its
// timers run on the simulator's engine or on the live stack's virtual
// clock — the property that lets core.Build and node.TrafficGen host one
// implementation.
func TestSourcesSubstrateNeutral(t *testing.T) {
	for name, src := range map[string]Source{
		"cbr":       CBR{RateBits: 8e5, PacketBits: 8000},
		"poisson":   Poisson{RateBits: 1e6, MeanPacketBits: 8000},
		"onoff":     OnOff{RateBits: 1e6, MeanPacketBits: 8000, PeakFactor: 4, MeanOn: 0.25},
		"adversary": Adversary{RateBits: 1e6, PacketBits: 8000, PeakFactor: 4, OnLen: 0.25},
	} {
		t.Run(name, func(t *testing.T) {
			const seed = 11
			want := emissions(src, seed, des.NewEngine(seed))

			clk := transport.NewVirtualClock()
			var got []emission
			src.Start(func(d float64, fn func()) { clk.AfterFunc(d, fn) }, rng.New(seed), func(bits float64) {
				got = append(got, emission{clk.Now(), bits})
			})
			clk.Advance(20)

			if len(want) < 100 {
				t.Fatalf("only %d emissions in 20 s; the comparison is vacuous", len(want))
			}
			if !sameEmissions(got, want) {
				t.Fatalf("virtual clock emitted %d packets, engine %d, or the sequences differ", len(got), len(want))
			}
		})
	}
}
