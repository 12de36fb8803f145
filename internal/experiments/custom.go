package experiments

import (
	"fmt"

	"minroute/internal/core"
	"minroute/internal/report"
	"minroute/internal/topo"
)

// CustomComparison runs the paper's three schemes — Gallager's OPT, MP and
// SP — on a user-supplied network (e.g. one loaded with topo.Parse)
// under identical traffic and seeds, returning the per-flow delay figure.
// This is what `mdrsim -scenario x.txt -compare` prints.
func CustomComparison(net *topo.Network, set Settings) (*report.Figure, error) {
	build := func() *topo.Network { return net }
	return compare("custom", "Scheme comparison on custom network", build, true, 0,
		[]scheme{mp(10, 2), sp(10)}, set, nil)
}

// Scenario simulates net once, at set.Seed, under the scheme mode names —
// "mp" or "sp": CustomComparison's MP-TL-10-TS-2 and SP-TL-10 columns —
// and returns the network as the run left it, for its Report and counters.
// Telemetry, when set asks for it, is exported as scenario_<mode>_s<seed>,
// warning as simulate does. This is what `mdrsim -scenario x.txt` prints.
func Scenario(net *topo.Network, mode string, set Settings) (*core.Network, []string, error) {
	s, ok := map[string]scheme{"mp": mp(10, 2), "sp": sp(10)}[mode]
	if !ok {
		return nil, nil, fmt.Errorf("unknown mode %q (mp, sp)", mode)
	}
	s.label = mode
	set.Runs = 1
	var sim *core.Network
	_, warnings, err := simulate("scenario", func() *topo.Network { return net }, []scheme{s}, set,
		func(n *core.Network, run Settings) ([]float64, error) {
			sim = n
			return meanDelays(n, run)
		})
	return sim, warnings, err
}
