package obs

import (
	"fmt"
	"io"
	"maps"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"minroute/internal/telemetry"
)

// Prometheus text exposition (version 0.0.4) of a telemetry registry.
//
// Mangling rules, applied to the registry's dotted names:
//
//   - dots (and any other character outside [a-zA-Z0-9_:]) become '_',
//     and every family gets the module prefix: "control.msgs" →
//     "mdr_control_msgs".
//   - a trailing ".<a>-<b>" directed-link segment is lifted into a
//     link="<a>-<b>" label instead of exploding the family per link:
//     "arq.retransmits.0-1" → mdr_arq_retransmits_total{link="0-1"}.
//   - counters get the conventional "_total" suffix.
//   - histograms expose their all-time summary as three series:
//     <fam>_count and <fam>_sum (counters) and <fam>_max (a gauge).
//     The per-window time buckets are a simulation-side artifact
//     (windows of sim time, not value-domain buckets) and stay in the
//     plain-text snapshot.
//
// Families render contiguously with one # TYPE header each; Gather's
// stable ordering makes the whole page deterministic for a given set of
// instrument values, which the scrape-latency benchmark relies on.

// linkSuffix matches a trailing ".<a>-<b>" directed-link name segment.
var linkSuffix = regexp.MustCompile(`\.([0-9]+-[0-9]+)$`)

// WritePrometheus renders gathered metrics in Prometheus text format.
// constLabels are attached to every series.
func WritePrometheus(w io.Writer, ms []telemetry.Metric, constLabels map[string]string) error {
	lastHeader := ""
	for _, m := range ms {
		name, labels := splitLink(m.Name)
		switch m.Inst {
		case telemetry.InstCounter:
			fam := name + "_total"
			if err := writeHeader(w, &lastHeader, fam, "counter"); err != nil {
				return err
			}
			if err := writeSample(w, fam, labels, constLabels, m.Value); err != nil {
				return err
			}
		case telemetry.InstGauge:
			if err := writeHeader(w, &lastHeader, name, "gauge"); err != nil {
				return err
			}
			if err := writeSample(w, name, labels, constLabels, m.Value); err != nil {
				return err
			}
		case telemetry.InstHistogram:
			for _, part := range []struct {
				suffix, typ string
				value       float64
			}{
				{"_count", "counter", float64(m.Count)},
				{"_sum", "counter", m.Sum},
				{"_max", "gauge", m.Max},
			} {
				fam := name + part.suffix
				if err := writeHeader(w, &lastHeader, fam, part.typ); err != nil {
					return err
				}
				if err := writeSample(w, fam, labels, constLabels, part.value); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// splitLink mangles a registry name into its Prometheus family name and
// any link label lifted out of a trailing "<a>-<b>" segment.
func splitLink(name string) (string, map[string]string) {
	var labels map[string]string
	if m := linkSuffix.FindStringSubmatch(name); m != nil {
		labels = map[string]string{"link": m[1]}
		name = name[:len(name)-len(m[0])]
	}
	return "mdr_" + sanitizeName(name), labels
}

// sanitizeName maps every character outside the Prometheus metric-name
// alphabet to '_'.
func sanitizeName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if b.Len() == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// writeHeader emits the # TYPE line when the family changes. Families
// arrive contiguously because Gather sorts names within each instrument
// kind, so one string of last-seen state suffices.
func writeHeader(w io.Writer, last *string, fam, typ string) error {
	if *last == fam {
		return nil
	}
	*last = fam
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, typ)
	return err
}

// writeSample emits one series line with merged, key-sorted labels.
func writeSample(w io.Writer, fam string, labels, constLabels map[string]string, v float64) error {
	merged := make(map[string]string, len(labels)+len(constLabels))
	maps.Copy(merged, constLabels)
	maps.Copy(merged, labels) // per-series labels override const labels
	var b strings.Builder
	b.WriteString(fam)
	if len(merged) > 0 {
		keys := make([]string, 0, len(merged))
		//lint:maporder-ok keys are collected and sorted before use
		for k := range merged {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(sanitizeName(k))
			b.WriteString(`="`)
			b.WriteString(escapeLabel(merged[k]))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
