package alloc_test

import (
	"fmt"

	"minroute/internal/alloc"
	"minroute/internal/graph"
)

// ExampleIH shows heuristic IH: fresh routing parameters over a successor
// set, inversely related to each successor's marginal distance.
func ExampleIH() {
	succ := []graph.NodeID{1, 2}
	dist := []float64{1.0, 3.0} // successor 1 is closer
	for _, sh := range alloc.IH(nil, succ, dist) {
		fmt.Printf("successor %d: %.2f\n", sh.Hop, sh.Frac)
	}
	// Output:
	// successor 1: 0.75
	// successor 2: 0.25
}

// ExampleInitial shows IH in the map form the mdrbench alloc probes time.
func ExampleInitial() {
	succ := []graph.NodeID{1, 2}
	dist := func(k graph.NodeID) float64 {
		if k == 1 {
			return 1.0 // closer successor
		}
		return 3.0
	}
	phi := alloc.Initial(succ, dist)
	for _, k := range phi.Keys() {
		fmt.Printf("successor %d: %.2f\n", k, phi[k])
	}
	// Output:
	// successor 1: 0.75
	// successor 2: 0.25
}

// ExampleAdjustDamped shows heuristic AH: repeated adjustments move
// traffic toward the successor with the least marginal delay.
func ExampleAdjustDamped() {
	phi := alloc.Split{{Hop: 1, Frac: 0.5}, {Hop: 2, Frac: 0.5}}
	dist := []float64{1.0, 2.0} // successor 2 is congested
	for i := 0; i < 3; i++ {
		alloc.AdjustDamped(phi, dist, 0.5)
	}
	fmt.Printf("phi1 > 0.7: %v, phi1+phi2 = %.0f\n", phi[0].Frac > 0.7, phi[0].Frac+phi[1].Frac)
	// Output:
	// phi1 > 0.7: true, phi1+phi2 = 1
}
