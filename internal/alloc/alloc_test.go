package alloc

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"minroute/internal/graph"
	"minroute/internal/rng"
)

var inf = math.Inf(1)

// frac returns k's fraction in s, 0 when k is no hop of s.
func frac(s Split, k graph.NodeID) float64 {
	for _, sh := range s {
		if sh.Hop == k {
			return sh.Frac
		}
	}
	return 0
}

// hops lists s's hops in order.
func hops(s Split) []graph.NodeID {
	out := make([]graph.NodeID, len(s))
	for i, sh := range s {
		out[i] = sh.Hop
	}
	return out
}

func TestInitialSingleSuccessor(t *testing.T) {
	phi := IH(nil, []graph.NodeID{3}, []float64{1.5})
	if frac(phi, 3) != 1 {
		t.Fatalf("phi = %v", phi)
	}
	if err := Validate(phi, []graph.NodeID{3}); err != nil {
		t.Fatal(err)
	}
}

func TestInitialEmpty(t *testing.T) {
	if phi := IH(nil, nil, nil); len(phi) != 0 {
		t.Fatalf("phi = %v, want empty", phi)
	}
	// Every successor unusable: one share per successor, and no weight.
	phi := IH(nil, []graph.NodeID{1, 2}, []float64{inf, inf})
	if !phi.Over([]graph.NodeID{1, 2}) || phi.Weighted() {
		t.Fatalf("phi = %v, want the hops 1, 2 without weight", phi)
	}
	if m := Initial([]graph.NodeID{1, 2}, func(graph.NodeID) float64 { return inf }); m != nil {
		t.Fatalf("Initial = %v, want nil", m)
	}
}

func TestInitialTwoSuccessorsInverseToDistance(t *testing.T) {
	succ := []graph.NodeID{1, 2}
	phi := IH(nil, succ, []float64{1, 3})
	// total=4: phi_1 = (1 - 1/4)/1 = 0.75, phi_2 = (1 - 3/4)/1 = 0.25.
	if math.Abs(frac(phi, 1)-0.75) > 1e-12 || math.Abs(frac(phi, 2)-0.25) > 1e-12 {
		t.Fatalf("phi = %v", phi)
	}
	if err := Validate(phi, succ); err != nil {
		t.Fatal(err)
	}
}

func TestInitialMonotoneInDistance(t *testing.T) {
	succ := []graph.NodeID{1, 2, 3}
	phi := IH(nil, succ, []float64{1, 2, 4})
	if !(phi[0].Frac > phi[1].Frac && phi[1].Frac > phi[2].Frac) {
		t.Fatalf("fractions not decreasing with distance: %v", phi)
	}
	if err := Validate(phi, succ); err != nil {
		t.Fatal(err)
	}
}

func TestInitialInfiniteSuccessorGetsZero(t *testing.T) {
	succ := []graph.NodeID{1, 2}
	phi := IH(nil, succ, []float64{1, inf})
	if frac(phi, 1) != 1 || frac(phi, 2) != 0 || !phi.Over(succ) {
		t.Fatalf("phi = %v", phi)
	}
}

func TestInitialAllZeroDistances(t *testing.T) {
	phi := IH(nil, []graph.NodeID{1, 2}, []float64{0, 0})
	if math.Abs(frac(phi, 1)-0.5) > 1e-12 || math.Abs(frac(phi, 2)-0.5) > 1e-12 {
		t.Fatalf("phi = %v", phi)
	}
}

// TestInitialRebuildsInPlace: IH writes into the storage of the Split it
// replaces, so a rebuild over a set no larger allocates nothing.
func TestInitialRebuildsInPlace(t *testing.T) {
	succ := []graph.NodeID{1, 4, 9}
	dist := []float64{1, 2, 3}
	phi := IH(nil, succ, dist)
	again := IH(phi, succ[:2], dist[:2])
	if &again[0] != &phi[0] || !again.Over(succ[:2]) {
		t.Fatalf("rebuild over %v gave %v in new storage", succ[:2], again)
	}
	if n := testing.AllocsPerRun(100, func() { phi = IH(phi, succ, dist) }); n != 0 {
		t.Fatalf("IH rebuild: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { AH(phi, dist); AdjustDamped(phi, dist, 0.5) }); n != 0 {
		t.Fatalf("AH step: %v allocs, want 0", n)
	}
}

func TestAdjustMovesTowardBest(t *testing.T) {
	succ := []graph.NodeID{1, 2}
	phi := Split{{1, 0.5}, {2, 0.5}}
	AH(phi, []float64{1, 2})
	if !(frac(phi, 1) > 0.5 && frac(phi, 2) < 0.5) {
		t.Fatalf("traffic did not move toward the best successor: %v", phi)
	}
	if err := Validate(phi, succ); err != nil {
		t.Fatal(err)
	}
}

func TestAdjustDrainsWorstRatioSuccessor(t *testing.T) {
	// phi=(0.5,0.3,0.2), a=(0,1,4): delta=min(0.3/1, 0.2/4)=0.05.
	// phi2 = 0.3-0.05 = 0.25; phi3 = 0.2-0.2 = 0; phi1 = 0.75.
	phi := Split{{1, 0.5}, {2, 0.3}, {3, 0.2}}
	AH(phi, []float64{1, 2, 5})
	if math.Abs(frac(phi, 1)-0.75) > 1e-12 || math.Abs(frac(phi, 2)-0.25) > 1e-12 || math.Abs(frac(phi, 3)) > 1e-12 {
		t.Fatalf("phi = %v, want {1:0.75 2:0.25 3:0}", phi)
	}
}

func TestAdjustNoOpWhenBalanced(t *testing.T) {
	phi := Split{{1, 0.6}, {2, 0.4}}
	AH(phi, []float64{2, 2})
	if frac(phi, 1) != 0.6 || frac(phi, 2) != 0.4 {
		t.Fatalf("balanced set was perturbed: %v", phi)
	}
}

func TestAdjustSingleSuccessorNoOp(t *testing.T) {
	phi := Single(1)
	AH(phi, []float64{2})
	if frac(phi, 1) != 1 {
		t.Fatalf("phi = %v", phi)
	}
}

func TestAdjustInfiniteDistanceDrained(t *testing.T) {
	phi := Split{{1, 0.5}, {2, 0.5}}
	AH(phi, []float64{1, inf})
	if frac(phi, 1) != 1 || frac(phi, 2) != 0 {
		t.Fatalf("unusable successor kept traffic: %v", phi)
	}
}

func TestAdjustSeeksEqualization(t *testing.T) {
	// Synthetic congestion feedback: the marginal distance through each
	// successor grows with the traffic it carries. As in the real system,
	// AH sees *measured* (window-smoothed) costs, not instantaneous ones.
	// The smoothed allocation must hover at the equilibrium where marginal
	// distances equalize (paper Eqs. 10-12): 1+p = 1+2(1-p) -> p = 2/3.
	succ := []graph.NodeID{1, 2}
	phi := Split{{1, 0.5}, {2, 0.5}}
	s1, s2 := 0.5, 0.5 // smoothed carried fractions (what the meter sees)
	const alpha = 0.1
	sum1, samples := 0.0, 0
	for i := 0; i < 400; i++ {
		AH(phi, []float64{1 + s1, 1 + 2*s2})
		s1 += alpha * (phi[0].Frac - s1)
		s2 += alpha * (phi[1].Frac - s2)
		if i >= 200 {
			sum1 += s1
			samples++
		}
	}
	avg := sum1 / float64(samples)
	if math.Abs(avg-2.0/3) > 0.1 {
		t.Fatalf("time-averaged allocation = %v, want ~2/3 on successor 1", avg)
	}
	if err := Validate(phi, succ); err != nil {
		t.Fatal(err)
	}
}

func TestSingle(t *testing.T) {
	phi := Single(7)
	if frac(phi, 7) != 1 || len(phi) != 1 {
		t.Fatalf("phi = %v", phi)
	}
}

func TestValidateRejects(t *testing.T) {
	succ := []graph.NodeID{1, 2}
	cases := map[string]Split{
		"negative":       {{1, -0.1}, {2, 1.1}},
		"off-set":        {{1, 0.5}, {3, 0.5}},
		"sum too small":  {{1, 0.3}, {2, 0.3}},
		"sum too large":  {{1, 0.8}, {2, 0.8}},
		"empty non-null": {},
		"descending":     {{2, 0.5}, {1, 0.5}},
		"repeated hop":   {{1, 0.5}, {1, 0.5}},
	}
	for name, phi := range cases {
		if err := Validate(phi, succ); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestValidateEmptyOK(t *testing.T) {
	if err := Validate(nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeysSorted(t *testing.T) {
	phi := Params{9: 0.1, 1: 0.2, 5: 0.7}
	keys := phi.Keys()
	if len(keys) != 3 || keys[0] != 1 || keys[1] != 5 || keys[2] != 9 {
		t.Fatalf("keys = %v", keys)
	}
}

// randomSet draws an ascending successor set of 1–8 IDs below 64 and a
// marginal distance through each, mixing ordinary values with zeros and
// +Inf as unpriced or unusable successors give them.
func randomSet(r *rng.Source) ([]graph.NodeID, []float64) {
	n := 1 + r.Intn(8)
	succ := make([]graph.NodeID, 0, n)
	for len(succ) < n {
		if k := graph.NodeID(r.Intn(64)); !slices.Contains(succ, k) {
			succ = append(succ, k)
		}
	}
	slices.Sort(succ)
	return succ, randomDists(r, n)
}

func randomDists(r *rng.Source, n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		switch r.Intn(6) {
		case 0:
			d[i] = inf
		case 1:
			d[i] = 0
		default:
			d[i] = 0.1 + r.Float64()*10
		}
	}
	return d
}

// Property: IH, AH and damped AH keep Property 1 over random ascending
// successor sets and distances, zero and +Inf included, and a step of
// either AH moves traffic only to the minimum-distance hop, never from it
// (ties go to the lowest ID, which the others tie with). IH finds no
// usable successor exactly when every distance is +Inf, and then keeps the
// hops without weight.
func TestPropertyHeuristicsPreserveProperty1(t *testing.T) {
	check := func(seed uint64, rounds8 uint8, damped bool) bool {
		r := rng.New(seed)
		succ, dist := randomSet(r)
		phi := IH(nil, succ, dist)
		if !phi.Over(succ) {
			return false
		}
		allInf := !slices.ContainsFunc(dist, usable)
		if allInf {
			return !phi.Weighted()
		}
		if err := Validate(phi, succ); err != nil {
			t.Log(err)
			return false
		}
		for range int(rounds8 % 20) {
			// Perturb distances between adjustments as congestion would.
			dist = randomDists(r, len(succ))
			i0, _ := best(dist)
			before := slices.Clone(phi)
			if damped {
				AdjustDamped(phi, dist, 0.5)
			} else {
				AH(phi, dist)
			}
			if err := Validate(phi, succ); err != nil {
				t.Log(err)
				return false
			}
			// Traffic moves only to the hop at the least distance.
			for i, sh := range phi {
				if d := sh.Frac - before[i].Frac; (i == i0 && d < -1e-12) || (i != i0 && d > 1e-12) {
					t.Logf("distances %v: %v → %v", dist, before, phi)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: AH never increases the marginal-distance-weighted average, i.e.
// it is a descent heuristic with respect to the current distances.
func TestPropertyAdjustDescent(t *testing.T) {
	check := func(seed uint64, n8 uint8) bool {
		r := rng.New(seed)
		n := int(n8%5) + 2
		succ := make([]graph.NodeID, n)
		dist := make([]float64, n)
		for i := range succ {
			succ[i] = graph.NodeID(i + 1)
			dist[i] = 0.1 + r.Float64()*10
		}
		phi := IH(nil, succ, dist)
		cost := func() float64 {
			c := 0.0
			for i, sh := range phi {
				c += sh.Frac * dist[i]
			}
			return c
		}
		before := cost()
		AH(phi, dist)
		return cost() <= before+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the map forms Initial and Adjust give bit for bit the fractions
// IH and AH give on a Split, and Initial is nil exactly when IH's result
// has no weight (which AH is never asked to step).
func TestMapAdaptersMatchSplit(t *testing.T) {
	check := func(seed uint64, rounds8 uint8) bool {
		r := rng.New(seed)
		succ, dist := randomSet(r)
		distFunc := func(d []float64) func(graph.NodeID) float64 {
			return func(k graph.NodeID) float64 { return d[slices.Index(succ, k)] }
		}
		phi := IH(nil, succ, dist)
		m := Initial(succ, distFunc(dist))
		same := func() bool {
			if (m == nil) != !phi.Weighted() {
				return false
			}
			if m == nil {
				return true
			}
			if !slices.Equal(m.Keys(), hops(phi)) {
				return false
			}
			for _, sh := range phi {
				if math.Float64bits(m[sh.Hop]) != math.Float64bits(sh.Frac) {
					return false
				}
			}
			return true
		}
		if !same() {
			t.Logf("IH %v, Initial %v", phi, m)
			return false
		}
		if m == nil {
			return true // no parameters: the agent steps none
		}
		for range int(rounds8 % 10) {
			dist = randomDists(r, len(succ))
			AH(phi, dist)
			Adjust(m, succ, distFunc(dist))
			if !same() {
				t.Logf("AH %v, Adjust %v", phi, m)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAdjust(b *testing.B) {
	succ := []graph.NodeID{1, 2, 3, 4}
	dist := []float64{1, 2, 3, 4}
	phi := IH(nil, succ, dist)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AH(phi, dist)
	}
}
