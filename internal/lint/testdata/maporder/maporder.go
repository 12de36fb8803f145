// Package fixture exercises the maporder analyzer: order-sensitive map
// loops are flagged, provably commutative ones are not, suppressions
// without a reason are themselves diagnostics, and a loop calling into the
// protocol is flagged even under a reasoned suppression.
package fixture

import (
	"minroute/internal/graph"
	"minroute/internal/lsu"
	"minroute/internal/mpda"
)

func orderSensitiveAppend(m map[int]float64) []int {
	var out []int
	for k := range m { // want `order-sensitive`
		out = append(out, k)
	}
	return out
}

func orderSensitiveFloatSum(m map[int]float64) float64 {
	s := 0.0
	for _, v := range m { // want `order-sensitive`
		s += v // float accumulation: rounding depends on summation order
	}
	return s
}

func orderSensitiveGuard(m map[int]int, out map[int]int) {
	count := 0
	for k, v := range m { // want `order-sensitive`
		if count < 3 { // reads a variable the body mutates
			out[k] = v
		}
		count++
	}
}

func commutative(m map[int]int, other map[int]int) int {
	n := 0
	for k, v := range m {
		other[k] = v // distinct-key write
		n += v       // integer accumulation
	}
	for k := range m {
		delete(other, k) // distinct-key delete
	}
	return n
}

func commutativeGuardAndBucket(m map[int]int, indeg []int, preds map[int][]int64) {
	for k, v := range m {
		if v > 0 { // condition reads only loop vars
			indeg[k]++
			preds[k] = append(preds[k], int64(v)) // conversions are pure
		}
	}
}

func suppressedWithReason(m map[int]int) []int {
	var out []int
	//lint:maporder-ok fixture: caller sorts the keys afterwards
	for k := range m {
		out = append(out, k)
	}
	return out
}

func suppressedWithoutReason(m map[int]int) []int {
	var out []int
	// The annotation below has no reason: it suppresses nothing (the range
	// is still flagged) and is itself reported.
	//lint:maporder-ok
	// want:-1 `no reason`
	for k := range m { // want `order-sensitive`
		out = append(out, k)
	}
	return out
}

func unknownCheckName() {
	//lint:bogus-ok this check does not exist
	// want:-1 `unknown check`
}

// A loop that hands routers their events in map order is a finding whatever
// its annotation says.
func protocolEventsSuppressed(routers map[int]*mpda.Router, m *lsu.Msg) {
	//lint:maporder-ok fixture: a reason cannot excuse protocol events in map order
	for _, r := range routers { // want `calls minroute/internal/mpda.HandleLSU`
		r.HandleLSU(m)
	}
}

func protocolEventsBare(routers map[int]*mpda.Router, k int) {
	for _, r := range routers { // want `protocol sees its events in map order`
		if r.Active() {
			r.LinkDown(graph.NodeID(k))
		}
	}
}

func protocolReadsOnly(routers map[int]*mpda.Router, active map[int]bool) {
	for id, r := range routers {
		active[id] = r != nil // no call: a keyed write, accepted
	}
}
