package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCloserBasic(t *testing.T) {
	if !Closer(1, 2) {
		t.Fatal("1 not closer than 2")
	}
	if Closer(2, 1) {
		t.Fatal("2 closer than 1")
	}
	if Closer(1, 1) {
		t.Fatal("equal values closer")
	}
}

func TestCloserTreatsULPTiesAsEqual(t *testing.T) {
	a := 0.0031
	b := 0.0031000000000000003 // same real path length, different summation order
	if Closer(a, b) || Closer(b, a) {
		t.Fatal("ULP-level tie treated as strict inequality")
	}
}

func TestCloserRealDifferences(t *testing.T) {
	// One link cost (~1e-4) difference must register at any realistic scale.
	for _, base := range []float64{0, 0.001, 1, 1000} {
		if !Closer(base, base+1e-4) {
			t.Fatalf("difference of 1e-4 at scale %v not detected", base)
		}
	}
}

func TestCloserInfinities(t *testing.T) {
	inf := math.Inf(1)
	if !Closer(5, inf) {
		t.Fatal("finite not closer than +Inf")
	}
	if Closer(inf, inf) {
		t.Fatal("+Inf closer than +Inf")
	}
	if Closer(inf, 5) {
		t.Fatal("+Inf closer than finite")
	}
}

func TestPropertyCloserAntisymmetricAndIrreflexive(t *testing.T) {
	check := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if Closer(a, a) {
			return false
		}
		return !(Closer(a, b) && Closer(b, a))
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}
