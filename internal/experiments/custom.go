package experiments

import (
	"fmt"

	"minroute/internal/core"
	"minroute/internal/report"
	"minroute/internal/topo"
)

// CustomComparison runs the full scheme spectrum — Gallager's OPT, MP, SP
// and ECMP — on a user-supplied network (e.g. one loaded with topo.Parse)
// under identical traffic and seeds, returning the per-flow delay figure.
// This is what `mdrsim -scenario x.txt -compare` prints.
func CustomComparison(net *topo.Network, set Settings) (*report.Figure, error) {
	build := func() *topo.Network { return net }
	return compare("custom", "Scheme comparison on custom network", build, true, 0,
		[]scheme{mp(10, 2), sp(10), ecmp(10)}, set, nil)
}

// Scenario simulates net once, at set.Seed, under the scheme mode names —
// "mp", "sp" or "ecmp": CustomComparison's MP-TL-10-TS-2, SP-TL-10 and
// ECMP-TL-10 columns — and returns the network as the run left it, for its
// Report and counters. Telemetry, when set asks for it, is exported as
// scenario_<mode>_s<seed>. This is what `mdrsim -scenario x.txt` prints.
func Scenario(net *topo.Network, mode string, set Settings) (*core.Network, error) {
	s, ok := map[string]scheme{"mp": mp(10, 2), "sp": sp(10), "ecmp": ecmp(10)}[mode]
	if !ok {
		return nil, fmt.Errorf("unknown mode %q (mp, sp, ecmp)", mode)
	}
	s.label = mode
	set.Runs = 1
	var sim *core.Network
	_, err := simulate("scenario", func() *topo.Network { return net }, []scheme{s}, set,
		func(n *core.Network, run Settings) ([]float64, error) {
			sim = n
			return meanDelays(n, run)
		})
	return sim, err
}
