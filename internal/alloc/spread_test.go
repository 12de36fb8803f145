package alloc

import (
	"math"
	"testing"
)

func TestSpread(t *testing.T) {
	if got := Spread(nil); got != 0 {
		t.Fatalf("Spread(nil) = %v, want 0", got)
	}
	if got := Spread(Split{{3, 0}}); got != 0 {
		t.Fatalf("Spread(no weight over a successor) = %v, want 0", got)
	}
	if got := Spread(Single(3)); got != 0 {
		t.Fatalf("Spread(single-path) = %v, want 0", got)
	}
	if got := Spread(Split{{1, 0.25}, {2, 0.25}, {3, 0.25}, {4, 0.25}}); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("Spread(uniform over 4) = %v, want 0.75", got)
	}
	skew := Split{{1, 0.7}, {2, 0.3}}
	if got := Spread(skew); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("Spread(0.7/0.3) = %v, want 0.3", got)
	}
}
