// Package numeric centralizes the floating-point comparisons the routing
// algorithms depend on.
//
// Path distances are sums of link costs accumulated in path order, so two
// paths of equal real-valued length can differ by a few ULPs depending on
// which links they traverse. Treating such a tie as "strictly closer" would
// admit a neighbor at equal distance into a successor set — harmless for
// loop-freedom (the feasible-distance chain stays strict) but a departure
// from the paper's S_j = {k : D_jk < FD_j}, and a source of flapping when
// costs churn. All strict-inequality decisions therefore go through Closer,
// which requires a margin far above accumulated rounding error (1e-9
// relative) yet far below any real cost difference (one link ≈ 1e-4 s).
package numeric

import "math"

// RelTol is the relative margin used by Closer.
const RelTol = 1e-9

// Closer reports whether a is strictly less than b by more than the
// tolerance. Infinities behave naturally: any finite a is Closer than +Inf,
// and +Inf is never Closer than anything.
func Closer(a, b float64) bool {
	if a >= b {
		return false
	}
	if math.IsInf(b, 1) {
		return !math.IsInf(a, 1)
	}
	return b-a > RelTol*(1+math.Abs(b))
}
