package router

import (
	"slices"
	"testing"

	"minroute/internal/alloc"
	"minroute/internal/graph"
	"minroute/internal/rng"
)

// keysPick is weightedPick as it was while φ was a map: it collected and
// sorted phi's keys on every packet. It lives on here as the reference the
// pick over a Split is held equal to.
func keysPick(r *rng.Source, phi alloc.Params) graph.NodeID {
	if len(phi) == 0 {
		return graph.None
	}
	x := r.Float64()
	acc := 0.0
	keys := phi.Keys()
	for _, k := range keys {
		acc += phi[k]
		if x < acc {
			return k
		}
	}
	for i := len(keys) - 1; i >= 0; i-- {
		if phi[keys[i]] > 0 {
			return keys[i]
		}
	}
	return graph.None
}

// randomPhi draws routing parameters as a map over 0–8 successor IDs and
// the Split holding the same fractions, hops ascending. The weights mix
// zeros, 1e-18 crumbs and ordinary fractions; their sum is normalized to 1,
// a few ulps under it, or far under it, so that draws also land past the
// running sum and take the FP-remainder fallback.
func randomPhi(r *rng.Source) (alloc.Params, alloc.Split) {
	n := r.Intn(9)
	if n == 0 {
		return nil, nil
	}
	succ := make([]graph.NodeID, 0, n)
	for len(succ) < n {
		if k := graph.NodeID(r.Intn(64)); !slices.Contains(succ, k) {
			succ = append(succ, k)
		}
	}
	slices.Sort(succ)
	phi := make(alloc.Params, n)
	sum := 0.0
	for _, k := range succ {
		switch r.Intn(4) {
		case 0:
			phi[k] = 0
		case 1:
			phi[k] = 1e-18
		default:
			phi[k] = r.Float64()
		}
		sum += phi[k]
	}
	scale := 1.0
	switch r.Intn(4) {
	case 0:
		scale -= float64(1+r.Intn(4)) * 0x1p-53
	case 1:
		scale = r.Float64()
	}
	split := make(alloc.Split, n)
	for i, k := range succ {
		if sum > 0 {
			phi[k] = phi[k] / sum * scale
		}
		split[i] = alloc.Share{Hop: k, Frac: phi[k]}
	}
	return phi, split
}

// TestWeightedPickMatchesSortedKeys holds the pick over a Split to the
// map-and-sorted-keys pick it replaced: from the same RNG state, the same
// next hop and the same state afterwards, so a forwarding run draws the
// same sequence either way.
func TestWeightedPickMatchesSortedKeys(t *testing.T) {
	gen := rng.New(1)
	fallbacks, nones := 0, 0
	for i := 0; i < 100_000; i++ {
		phi, split := randomPhi(gen)
		seed := gen.Uint64()
		got, want := rng.New(seed), rng.New(seed)
		if g, w := weightedPick(got, split), keysPick(want, phi); g != w {
			t.Fatalf("case %d: phi %v as %v: picked %v, the sorted-keys pick %v", i, phi, split, g, w)
		} else if g == graph.None {
			nones++
		}
		if *got != *want {
			t.Fatalf("case %d: phi %v: the RNG state parts from the sorted-keys pick's", i, phi)
		}
		if len(phi) > 0 {
			x, acc := rng.New(seed).Float64(), 0.0
			for _, sh := range split {
				acc += sh.Frac
			}
			if x >= acc {
				fallbacks++
			}
		}
	}
	t.Logf("%d FP-remainder fallbacks, %d picks of no successor", fallbacks, nones)
	if fallbacks == 0 || nones == 0 {
		t.Fatal("no draw reached the fallback or found no successor: the comparison was vacuous")
	}
}

// TestInstallStaticKeepsSortedKeys holds InstallStatic to the order the
// pick walks: it keeps Splits whose hops are the sorted keys as given, and
// refuses one whose hops do not ascend, where the pick would part from the
// sorted-keys pick.
func TestInstallStaticKeepsSortedKeys(t *testing.T) {
	gen := rng.New(2)
	maps := make([]alloc.Params, 64)
	phi := make([]alloc.Split, 64)
	for j := range phi {
		maps[j], phi[j] = randomPhi(gen)
	}
	var n Node
	n.InstallStatic(phi)
	for j, p := range maps {
		var hops []graph.NodeID
		for _, sh := range n.staticPhi[j] {
			hops = append(hops, sh.Hop)
		}
		if !slices.Equal(hops, p.Keys()) {
			t.Fatalf("destination %d: stored hops %v, Keys() %v", j, hops, p.Keys())
		}
	}
	phi[7] = alloc.Split{{Hop: 3, Frac: 0.5}, {Hop: 1, Frac: 0.5}}
	defer func() {
		if recover() == nil {
			t.Fatal("InstallStatic kept hops 3, 1")
		}
	}()
	n.InstallStatic(phi)
}
