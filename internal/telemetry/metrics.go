package telemetry

import (
	"math"
	"sort"
	"strconv"
	"sync/atomic"
)

// Counter is a monotonically growing (or explicitly Set) float total. A
// nil *Counter is a valid no-op sink, which is what gives every probe site
// its one-branch disabled path.
//
// Add, Set and Value are atomic: the live runtime's ARQ and session
// goroutines write counters that the obs server scrapes concurrently, and
// an uncontended CAS costs single-digit nanoseconds — invisible next to
// the branch the disabled path already pays. A simulation's per-packet
// totals do not pay it: core mirrors them in with Set at export time.
type Counter struct {
	bits atomic.Uint64 // math.Float64bits of the total
}

// Add increases the counter by d.
func (c *Counter) Add(d float64) {
	if c == nil {
		return
	}
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Set overwrites the counter (used to mirror externally maintained totals,
// e.g. ring drop counts, into a snapshot).
func (c *Counter) Set(v float64) {
	if c == nil {
		return
	}
	c.bits.Store(math.Float64bits(v))
}

// Value returns the current total (zero for nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a last-value-wins instantaneous measurement. Set and Value are
// atomic, for the same live-scrape reason as Counter.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits of the last value
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last value set (zero for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Bucket summarizes the observations of one simulation-time window.
type Bucket struct {
	N   int64
	Sum float64
	Max float64
}

// Mean returns the bucket's average observation, or 0 with none.
func (b Bucket) Mean() float64 {
	if b.N == 0 {
		return 0
	}
	return b.Sum / float64(b.N)
}

// Histogram aggregates observations into fixed-width simulation-time
// buckets: Observe(t, v) lands v in bucket floor(t/width). That makes a
// histogram a compact time series — queue depth per second, ACTIVE-phase
// duration per second — instead of a value-domain distribution, which is
// the shape the paper's figures actually need. It has one writer, the
// simulation that owns it; its sums run in observation order.
type Histogram struct {
	width   float64
	buckets []Bucket
	total   Bucket
}

// Observe records value v at simulation time t.
func (h *Histogram) Observe(t, v float64) {
	if h == nil {
		return
	}
	i := 0
	if t > 0 && h.width > 0 {
		i = int(t / h.width)
	}
	for len(h.buckets) <= i {
		h.buckets = append(h.buckets, Bucket{})
	}
	b := &h.buckets[i]
	b.N++
	b.Sum += v
	if v > b.Max {
		b.Max = v
	}
	h.total.N++
	h.total.Sum += v
	if v > h.total.Max {
		h.total.Max = v
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.Total().N }

// Total returns the all-time summary bucket.
func (h *Histogram) Total() Bucket {
	if h == nil {
		return Bucket{}
	}
	return h.total
}

// Mean returns the all-time average observation, or 0 with none.
func (h *Histogram) Mean() float64 { return h.Total().Mean() }

// Max returns the largest observation seen.
func (h *Histogram) Max() float64 { return h.Total().Max }

// BucketWidth returns the time-bucket width in seconds.
func (h *Histogram) BucketWidth() float64 {
	if h == nil {
		return 0
	}
	return h.width
}

// Buckets returns the per-window summaries, index i covering simulation
// time [i*width, (i+1)*width): the histogram's own slice, which callers
// must not modify.
func (h *Histogram) Buckets() []Bucket {
	if h == nil {
		return nil
	}
	return h.buckets
}

// ConvergeMeter approximates per-topology-event convergence time: every
// injected topology change (fail, restore, crash, restart) arms the meter,
// and the first routing-table commit anywhere in the network afterwards
// closes it, recording commit-time minus event-time. That is a lower bound
// on full Theorem-4 convergence (later commits belong to the same episode)
// but it is cheap, per-event, and monotone in the quantity the Tl sweeps
// study: how fast the control plane reacts to change.
type ConvergeMeter struct {
	// Lag receives one observation per closed episode (at the commit time).
	Lag *Histogram
	// Last mirrors the most recent lag for the snapshot.
	Last  *Gauge
	at    float64
	armed bool
}

// TopoEvent marks a topology change at simulation time t and arms the
// meter; an episode still open (no commit since the last change) restarts
// from t.
func (m *ConvergeMeter) TopoEvent(t float64) {
	if m == nil {
		return
	}
	m.at = t
	m.armed = true
}

// Commit reports a routing-table commit at time t. The first one after a
// topology change closes the episode; the rest are ignored until the next.
func (m *ConvergeMeter) Commit(t float64) {
	if m == nil || !m.armed {
		return
	}
	m.armed = false
	lag := t - m.at
	m.Lag.Observe(t, lag)
	m.Last.Set(lag)
}

// DefaultBucketWidth is the histogram time-bucket width used by
// NewCapture: one second, matching the short-term (Ts) order of magnitude.
const DefaultBucketWidth = 1.0

// Registry is a name-keyed collection of counters, gauges, and histograms.
// Accessors get-or-create, so wiring code can reference an instrument in
// one line; a nil *Registry returns nil instruments, which are themselves
// no-op sinks — the whole chain stays safe when telemetry is off.
type Registry struct {
	width    float64
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds a registry whose histograms bucket simulation time at
// the given width (<= 0 selects DefaultBucketWidth).
func NewRegistry(bucketWidth float64) *Registry {
	if bucketWidth <= 0 {
		bucketWidth = DefaultBucketWidth
	}
	return &Registry{
		width:    bucketWidth,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{width: r.width}
		r.hists[name] = h
	}
	return h
}

// RegisterCounter installs an existing counter under name, so one
// instrument can appear in several registries — the mesh-wide registry and
// the owning node's obs registry share the same per-link ARQ counter.
// Setup-time only: registry maps are not safe for concurrent mutation.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	if r == nil || c == nil {
		return
	}
	r.counters[name] = c
}

// RegisterGauge installs an existing gauge under name (see RegisterCounter).
func (r *Registry) RegisterGauge(name string, g *Gauge) {
	if r == nil || g == nil {
		return
	}
	r.gauges[name] = g
}

// fmtFloat is the canonical float rendering shared by every exporter:
// shortest round-trippable form, so snapshots are byte-identical
// run-to-run.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// sortedKeys returns the map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	//lint:maporder-ok keys are collected and sorted before any use
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
