package telemetry

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Capture bundles one simulation's event bus and metrics registry. Build a
// Capture, hand it to core.Options.Telemetry, and export after the run.
// A nil *Capture disables instrumentation entirely.
type Capture struct {
	Trace   *Tracer
	Metrics *Registry
}

// NewCapture builds a capture with default ring capacity and histogram
// bucket width for a network of numRouters routers.
func NewCapture(numRouters int) *Capture {
	return &Capture{
		Trace:   NewTracer(numRouters, DefaultRingCap),
		Metrics: NewRegistry(DefaultBucketWidth),
	}
}

// SyncDropCounters mirrors the event bus's own accounting into the
// registry: the counters telemetry.events.emitted and
// telemetry.events.dropped, the latter also per band
// (telemetry.events.dropped.control, telemetry.events.dropped.data), and
// the gauge telemetry.events.pkt_sample_every, the data band's sample
// rate. It is idempotent (Set, not Add).
func (c *Capture) SyncDropCounters() {
	if c == nil || c.Trace == nil || c.Metrics == nil {
		return
	}
	c.Metrics.Counter("telemetry.events.emitted").Set(float64(c.Trace.Emitted()))
	c.Metrics.Counter("telemetry.events.dropped").Set(float64(c.Trace.Dropped()))
	for b := range c.Trace.rings {
		c.Metrics.Counter("telemetry.events.dropped." + bandNames[b]).Set(float64(c.Trace.rings[b].dropped))
	}
	c.Metrics.Gauge("telemetry.events.pkt_sample_every").Set(pktSampleEvery)
}

// Truncation tells how many events each band's ring overwrote, naming
// the export by prefix, or is "" when the log is complete.
func (c *Capture) Truncation(prefix string) string {
	var parts []string
	for b := range c.Trace.rings {
		if r := &c.Trace.rings[b]; r.dropped > 0 {
			parts = append(parts, fmt.Sprintf("%s band dropped %d of %d events", bandNames[b], r.dropped, uint64(len(r.buf))+r.dropped))
		}
	}
	if parts == nil {
		return ""
	}
	return prefix + ": telemetry " + strings.Join(parts, ", ") + "; the exported log is truncated"
}

// Export writes the capture's two artifacts into dir:
//
//	<prefix>.events.jsonl — the merged event log, one JSON object per line
//	<prefix>.metrics.txt  — the sorted metrics snapshot
//
// Both are deterministic functions of the simulation, so they can be
// hashed and compared across runs and worker counts. Each file is streamed
// through one reused chunkSize buffer and closed before the next opens.
// The Chrome trace is a view of the event log, not a third artifact:
// `mdrtrace -chrome <prefix>.events.jsonl` renders it byte for byte as
// WriteChromeTrace of these events would.
//
// Export first mirrors the event bus's own accounting into the registry —
// telemetry.events.emitted and telemetry.events.dropped — so a truncated
// (ring-wrapped) log is visible as a first-class metric in the snapshot
// and on any /metrics endpoint, not just as an operator warning. Both
// totals are functions of what the simulation emitted, not of how many
// workers ran beside it.
func (c *Capture) Export(dir, prefix string) error {
	c.SyncDropCounters()
	events := c.Trace.Events()
	bw := bufio.NewWriterSize(nil, chunkSize)
	for _, a := range [...]struct {
		ext string
		enc func(*bufio.Writer) error
	}{
		{".events.jsonl", func(bw *bufio.Writer) error { return writeJSONL(bw, events) }},
		{".metrics.txt", func(bw *bufio.Writer) error {
			bw.WriteString(c.Metrics.Snapshot()) // bw keeps a write error for Flush
			return bw.Flush()
		}},
	} {
		if err := writeFile(filepath.Join(dir, prefix+a.ext), bw, a.enc); err != nil {
			return err
		}
	}
	return nil
}

// writeFile creates path and streams enc's output into it through bw,
// then closes it, returning the first error, a Close error included.
func writeFile(path string, bw *bufio.Writer, enc func(*bufio.Writer) error) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	bw.Reset(f)
	err = enc(bw)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// chunkSize is the write granularity of every artifact: the encoders
// append each event straight into the free tail of one buffer of this
// size, which goes out in a single Write when nearly full.
const chunkSize = 64 << 10

// lineRoom is the free space freeTail guarantees, more than one encoded
// event needs unless its label is very long (then append grows a copy).
const lineRoom = 1 << 10

// freeTail returns bw's free buffer space to append one encoded event
// into, writing the buffer out first when less than lineRoom is left. A
// write error stays in bw and is returned by the Write that follows.
func freeTail(bw *bufio.Writer) []byte {
	if bw.Available() < lineRoom {
		bw.Flush()
	}
	return bw.AvailableBuffer()
}
