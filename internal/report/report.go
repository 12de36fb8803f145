// Package report renders experiment results in the shape the paper
// presents them: per-flow average delays (flow IDs on the x-axis, one
// series per routing scheme), as aligned text tables, CSV, and quick ASCII
// charts for terminal inspection.
package report

import (
	"fmt"
	"math"
	"strings"
)

// Figure is one reproduced table/figure: a matrix of per-flow values with
// one column per scheme.
type Figure struct {
	// ID names the paper artifact, e.g. "fig9".
	ID string
	// Title describes the experiment.
	Title string
	// Columns labels each series, e.g. "OPT", "MP-TL-10-TS-2".
	Columns []string
	// Rows labels each flow.
	Rows []string
	// Data[r][c] is the value (ms) for flow r under scheme c.
	Data [][]float64
	// Notes records observations (e.g. the paper's expected shape).
	Notes []string
	// Warnings names each simulation whose telemetry export is truncated,
	// for the front end to print; Table, CSV and SVG leave them out.
	Warnings []string
}

// AddRow appends one flow's values.
func (f *Figure) AddRow(name string, values ...float64) {
	f.Rows = append(f.Rows, name)
	f.Data = append(f.Data, values)
}

// Column returns the values of one column.
func (f *Figure) Column(c int) []float64 {
	out := make([]float64, len(f.Data))
	for r := range f.Data {
		out[r] = f.Data[r][c]
	}
	return out
}

// ColumnMean averages one column, skipping NaNs.
func (f *Figure) ColumnMean(c int) float64 {
	sum, n := 0.0, 0
	for r := range f.Data {
		if v := f.Data[r][c]; !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Table renders an aligned text table with per-column means.
func (f *Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", strings.ToUpper(f.ID), f.Title)
	fmt.Fprintf(&b, "%-18s", "flow")
	for _, c := range f.Columns {
		fmt.Fprintf(&b, " %14s", c)
	}
	b.WriteByte('\n')
	for r, name := range f.Rows {
		fmt.Fprintf(&b, "%-18s", name)
		for c := range f.Columns {
			fmt.Fprintf(&b, " %14.3f", f.Data[r][c])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-18s", "mean")
	for c := range f.Columns {
		fmt.Fprintf(&b, " %14.3f", f.ColumnMean(c))
	}
	b.WriteByte('\n')
	for _, note := range f.Notes {
		fmt.Fprintf(&b, "  note: %s\n", note)
	}
	return b.String()
}

// CSV renders the figure as comma-separated values.
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString("flow")
	for _, c := range f.Columns {
		b.WriteByte(',')
		b.WriteString(c)
	}
	b.WriteByte('\n')
	for r, name := range f.Rows {
		b.WriteString(name)
		for c := range f.Columns {
			fmt.Fprintf(&b, ",%.6f", f.Data[r][c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Chart renders a crude horizontal bar chart of one column per flow, for
// quick terminal comparison. width is the maximum bar length in cells.
func (f *Figure) Chart(width int) string {
	if width <= 0 {
		width = 50
	}
	max := 0.0
	for r := range f.Data {
		for c := range f.Columns {
			if v := f.Data[r][c]; !math.IsNaN(v) && v > max {
				max = v
			}
		}
	}
	if max == 0 {
		return "(no data)\n"
	}
	var b strings.Builder
	marks := []byte{'#', '*', '+', '.', 'o', 'x'}
	for r, name := range f.Rows {
		for c, col := range f.Columns {
			n := int(f.Data[r][c] / max * float64(width))
			if n < 0 || math.IsNaN(f.Data[r][c]) {
				n = 0
			}
			fmt.Fprintf(&b, "%-14s %-16s %s %.3f\n", name, col,
				strings.Repeat(string(marks[c%len(marks)]), n), f.Data[r][c])
		}
		_ = r
	}
	return b.String()
}

// Ratio returns the per-flow ratio column a over column b, skipping NaNs.
func (f *Figure) Ratio(a, b int) []float64 {
	out := make([]float64, len(f.Data))
	for r := range f.Data {
		out[r] = f.Data[r][a] / f.Data[r][b]
	}
	return out
}

// MaxRatio returns the largest finite per-flow ratio of column a over b.
func (f *Figure) MaxRatio(a, b int) float64 {
	max := math.Inf(-1)
	for _, v := range f.Ratio(a, b) {
		if !math.IsNaN(v) && !math.IsInf(v, 0) && v > max {
			max = v
		}
	}
	return max
}
