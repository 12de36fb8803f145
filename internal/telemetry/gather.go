package telemetry

import (
	"strconv"
	"strings"
)

// InstrumentKind identifies which instrument family a gathered Metric came
// from.
type InstrumentKind uint8

const (
	InstCounter InstrumentKind = iota
	InstGauge
	InstHistogram
)

// String returns the snapshot line prefix for the instrument kind.
func (k InstrumentKind) String() string {
	switch k {
	case InstCounter:
		return "counter"
	case InstGauge:
		return "gauge"
	case InstHistogram:
		return "hist"
	}
	return "unknown"
}

// Metric is one gathered instrument sample. Counters and gauges carry
// Value; histograms carry Count/Sum/Max plus the time-bucketed windows.
// Buckets aliases the histogram's internal storage — callers must treat it
// as read-only.
type Metric struct {
	Name string
	Inst InstrumentKind

	// Value is the counter total or gauge reading.
	Value float64

	// Histogram summary: observation count, sum, largest observation, the
	// time-bucket width, and the per-window summaries.
	Count   int64
	Sum     float64
	Max     float64
	Width   float64
	Buckets []Bucket
}

// Mean returns a histogram metric's all-time average observation.
func (m Metric) Mean() float64 {
	if m.Count == 0 {
		return 0
	}
	return m.Sum / float64(m.Count)
}

// Gather snapshots every instrument in stable order: counters sorted by
// name, then gauges, then histograms — the order Snapshot has always
// rendered in. Counter and gauge reads are atomic, so Gather is safe while
// live goroutines are still writing those instruments; histograms are
// single-threaded by contract (simulation-side only), and instrument
// *creation* must happen-before any concurrent Gather (the registry maps
// themselves are unlocked). A nil registry gathers nothing.
func (r *Registry) Gather() []Metric {
	if r == nil {
		return nil
	}
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for _, name := range sortedKeys(r.counters) {
		out = append(out, Metric{Name: name, Inst: InstCounter, Value: r.counters[name].Value()})
	}
	for _, name := range sortedKeys(r.gauges) {
		out = append(out, Metric{Name: name, Inst: InstGauge, Value: r.gauges[name].Value()})
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		total := h.Total()
		out = append(out, Metric{
			Name: name, Inst: InstHistogram,
			Count: total.N, Sum: total.Sum, Max: total.Max,
			Width: h.BucketWidth(), Buckets: h.Buckets(),
		})
	}
	return out
}

// Snapshot renders every instrument as sorted plain text: one line per
// counter and gauge, one summary line plus one line per non-empty bucket
// for each histogram. It is a pure rendering of Gather, so the two views
// can never disagree.
func (r *Registry) Snapshot() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	for _, m := range r.Gather() {
		switch m.Inst {
		case InstCounter, InstGauge:
			b.WriteString(m.Inst.String() + " " + m.Name + " " + fmtFloat(m.Value) + "\n")
		case InstHistogram:
			b.WriteString("hist " + m.Name +
				" n=" + strconv.FormatInt(m.Count, 10) +
				" mean=" + fmtFloat(m.Mean()) +
				" max=" + fmtFloat(m.Max) + "\n")
			for i, bk := range m.Buckets {
				if bk.N == 0 {
					continue
				}
				b.WriteString("hist " + m.Name + "[" + strconv.Itoa(i) + "]" +
					" t0=" + fmtFloat(float64(i)*m.Width) +
					" n=" + strconv.FormatInt(bk.N, 10) +
					" mean=" + fmtFloat(bk.Mean()) +
					" max=" + fmtFloat(bk.Max) + "\n")
			}
		}
	}
	return b.String()
}
