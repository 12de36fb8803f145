package experiments

import (
	"minroute/internal/core"
	"minroute/internal/report"
)

// Jitter compares delay variability between MP and SP on NET1 — the paper
// observes that "because of load-balancing used in MP, the plots of MP are
// less jagged than those of SP". Columns report each flow's delay standard
// deviation in milliseconds.
func Jitter(set Settings) (*report.Figure, error) {
	fig := &report.Figure{
		ID:      "jitter",
		Title:   "Per-flow delay standard deviation in NET1 (ms)",
		Columns: labels(mpVsSP),
	}
	cols, warnings, err := simulate("jitter", topoNET1, mpVsSP, set, func(n *core.Network, _ Settings) ([]float64, error) {
		rep, err := runChecked(n)
		return rep.StdDevMs, err
	})
	if err != nil {
		return nil, err
	}
	fig.Warnings = warnings
	flowRows(fig, topoNET1(), cols)
	fig.Notes = append(fig.Notes,
		"paper: \"because of load-balancing used in MP, the plots of MP are less jagged than those of SP\"")
	return fig, nil
}

func init() {
	All["jitter"] = Jitter
	IDs = append(IDs, "jitter")
}
