package alloc

import (
	"math"
	"testing"

	"minroute/internal/graph"
)

func TestSpread(t *testing.T) {
	if got := Spread(nil, nil); got != 0 {
		t.Fatalf("Spread(nil) = %v, want 0", got)
	}
	if got := Spread(nil, []graph.NodeID{3}); got != 0 {
		t.Fatalf("Spread(no parameters over a successor) = %v, want 0", got)
	}
	if got := Spread(Single(3), []graph.NodeID{3}); got != 0 {
		t.Fatalf("Spread(single-path) = %v, want 0", got)
	}
	succ := []graph.NodeID{1, 2, 3, 4}
	if got := Spread(Uniform(succ), succ); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("Spread(uniform over 4) = %v, want 0.75", got)
	}
	skew := Params{1: 0.7, 2: 0.3}
	if got := Spread(skew, []graph.NodeID{1, 2}); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("Spread(0.7/0.3) = %v, want 0.3", got)
	}
}
