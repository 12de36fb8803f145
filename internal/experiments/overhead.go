package experiments

import (
	"fmt"

	"minroute/internal/core"
	"minroute/internal/report"
)

// Overhead quantifies the control-bandwidth trade-off of Section 5.2: "Tl
// can be made longer in MP without significantly affecting performance.
// This is significant, because sending frequent update messages consumes
// bandwidth and can also cause oscillations under high loads." Rows are Tl
// values; columns report MP's mean delay alongside the LSU message rate
// and control bandwidth it cost.
func Overhead(set Settings) (*report.Figure, error) {
	fig := &report.Figure{
		ID:      "overhead",
		Title:   "MP delay vs control overhead across Tl in NET1",
		Columns: []string{"MP delay (ms)", "LSU msgs/s", "control kb/s"},
	}
	schemes := []scheme{mp(5, 2), mp(10, 2), mp(20, 2), mp(40, 2)}
	// Each run reports [delay ms, LSU msgs/s, control kb/s], control traffic
	// counted over the measurement period only; simulate averages the triple
	// across seeds like any per-flow column.
	rows, warnings, err := simulate("overhead", topoNET1, schemes, set, func(n *core.Network, run Settings) ([]float64, error) {
		n.Start()
		n.RunUntil(run.Warmup)
		m0, b0 := n.ControlMessages(), n.ControlBits()
		rep, err := runChecked(n) // continues from warmup
		return []float64{
			rep.AvgMeanDelayMs(),
			float64(n.ControlMessages()-m0) / run.Duration,
			(n.ControlBits() - b0) / run.Duration / 1e3,
		}, err
	})
	if err != nil {
		return nil, err
	}
	fig.Warnings = warnings
	for i, s := range schemes {
		fig.AddRow(fmt.Sprintf("Tl=%.0fs", s.tl), rows[i]...)
	}
	fig.Notes = append(fig.Notes,
		"paper: Tl can be made longer in MP without significantly affecting performance, saving update bandwidth")
	return fig, nil
}

func init() {
	All["overhead"] = Overhead
	IDs = append(IDs, "overhead")
}
