package experiments

import (
	"minroute/internal/core"
	"minroute/internal/report"
)

// Failover quantifies the paper's remark that "in the presence of link
// failures, MP can only perform better than SP, because of availability of
// alternate paths": one NET1 bridge link (4-5) fails mid-run and later
// recovers; the figure reports the mean delay over flows in each phase for
// MP and SP. Rows are phases rather than flows.
func Failover(set Settings) (*report.Figure, error) {
	fig := &report.Figure{
		ID:      "failover",
		Title:   "Bridge failure and recovery in NET1 (mean over flows, ms)",
		Columns: labels(mpVsSP),
	}
	cols, warnings, err := simulate("failover", topoNET1, mpVsSP, set, failoverPhases)
	if err != nil {
		return nil, err
	}
	fig.Warnings = warnings
	for i, phase := range []string{"baseline", "failed", "recovered"} {
		fig.AddRow(phase, cols[0][i], cols[1][i])
	}
	fig.Notes = append(fig.Notes,
		"paper: with link failures MP can only perform better than SP (alternate paths already in place)")
	return fig, nil
}

// failoverPhases drives one network through warmup and three measured
// windows of run.Duration — before the bridge fails, while it is down, and
// after it is restored, each fault followed by a 5 s reconvergence grace —
// and returns the mean delay over flows in each.
func failoverPhases(n *core.Network, run Settings) ([]float64, error) {
	n.Start()
	n.RunUntil(run.Warmup)
	var out []float64
	for _, fault := range []func(){nil, func() { n.FailLink(4, 5) }, func() { n.RestoreLink(4, 5) }} {
		if fault != nil {
			fault()
			n.RunUntil(n.Eng.Now() + 5)
		}
		n.BeginMeasurement()
		n.RunUntil(n.Eng.Now() + run.Duration)
		if err := n.CheckLoopFree(); err != nil {
			return nil, err
		}
		out = append(out, n.Report().AvgMeanDelayMs())
	}
	return out, nil
}

func init() {
	All["failover"] = Failover
	IDs = append(IDs, "failover")
}
