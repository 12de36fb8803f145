package experiments

import (
	"fmt"

	"minroute/internal/report"
	"minroute/internal/router"
	"minroute/internal/topo"
)

// This file holds the ablation studies that back the design choices
// DESIGN.md calls out: the damped AH variant and the choice of
// marginal-delay estimator. It also adds the load sweep
// the paper describes qualitatively ("When connectivity is low or network
// load is light, MP routing cannot offer any advantage over SP").

// AblationAH compares the adjustment-heuristic variants on NET1: the
// damped rule (production default), the literal Fig. 7 rule, and AH
// disabled (IH-only allocation refreshed at Tl).
func AblationAH(set Settings) (*report.Figure, error) {
	fig, err := compare("abl-ah", "AH variants in NET1 (MP-TL-10-TS-2)", topoNET1, false, 0, []scheme{
		mp(10, 2).as("AH-damped", func(c *router.Config) { c.AHDamping = 0.5 }),
		mp(10, 2).as("AH-literal", func(c *router.Config) { c.AHDamping = -1 }),
		mp(10, 2).as("AH-off", func(c *router.Config) { c.AHDamping = 1e-12 }),
	}, set, nil)
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"the literal rule fully drains the binding donor each Ts and oscillates; damped AH converges",
		"AH-off leaves IH's initial split in place between route updates")
	return fig, nil
}

// AblationEstimator compares the closed-form M/M/1 marginal against the
// online (PA-role) estimator on NET1.
func AblationEstimator(set Settings) (*report.Figure, error) {
	fig, err := compare("abl-est", "Marginal-delay estimator in NET1 (MP-TL-10-TS-2)", topoNET1, false, 0, []scheme{
		mp(10, 2).as("MM1-closed", nil),
		mp(10, 2).as("PA-online", func(c *router.Config) { c.UseOnlineEstimator = true }),
	}, set, nil)
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"paper: convergence does not depend on the estimation technique; the online estimator needs no capacity knowledge")
	return fig, nil
}

// mpVsSP is the pair of columns the sweeps report.
var mpVsSP = []scheme{mp(10, 2), sp(10)}

// sweepRow runs MP and SP on one point of a sweep — its own network, so its
// own id — and adds to fig a row holding each scheme's mean delay over
// flows, then the extra values, and the simulations' warnings.
func sweepRow(fig *report.Figure, row, id string, build func() *topo.Network, set Settings, extra ...float64) error {
	cols, warnings, err := simulate(id, build, mpVsSP, set, meanDelays)
	if err != nil {
		return err
	}
	fig.AddRow(row, append([]float64{mean(cols[0]), mean(cols[1])}, extra...)...)
	fig.Warnings = append(fig.Warnings, warnings...)
	return nil
}

// LoadSweep measures MP and SP mean delays on NET1 across offered-load
// scales. Rows are scales instead of flows. The paper's qualitative claim:
// at light load MP offers no advantage; the gap opens as load grows.
func LoadSweep(set Settings) (*report.Figure, error) {
	fig := &report.Figure{
		ID:      "loadsweep",
		Title:   "MP vs SP vs load scale in NET1 (mean over flows, ms)",
		Columns: labels(mpVsSP),
	}
	for _, scale := range []float64{0.3, 0.6, 0.9, 1.0, 1.1} {
		build := func() *topo.Network {
			net := topoNET1()
			return &topo.Network{Graph: net.Graph, Flows: topo.ScaleFlows(net.Flows, scale)}
		}
		if err := sweepRow(fig, fmt.Sprintf("load x%.1f", scale), fmt.Sprintf("loadsweep-%03.0f", scale*100), build, set); err != nil {
			return nil, err
		}
	}
	fig.Notes = append(fig.Notes,
		"paper: \"When connectivity is low or network load is light, MP routing cannot offer any advantage over SP\"")
	return fig, nil
}

// mean averages a slice (NaN-free by construction here).
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func init() {
	// An ordered slice, not a map literal: registration order defines IDs,
	// and iterating a map here would register figures in a different order
	// every run.
	for _, g := range []struct {
		id  string
		gen func(Settings) (*report.Figure, error)
	}{
		{"abl-ah", AblationAH},
		{"abl-est", AblationEstimator},
		{"loadsweep", LoadSweep},
	} {
		All[g.id] = g.gen
		IDs = append(IDs, g.id)
	}
}
