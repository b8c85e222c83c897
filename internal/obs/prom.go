package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-format exposition (version 0.0.4) over a metrics snapshot.
// Metric names are sanitized (every character outside [a-zA-Z0-9_:] becomes
// '_') and prefixed "dmac_"; counters additionally get the conventional
// "_total" suffix, and histograms expand to the cumulative _bucket/_sum/
// _count triple. Labeled families and plain metrics render through the same
// path — a plain metric is a family with one unlabeled child — and all
// output is deterministically ordered, so a scrape is diffable and
// golden-testable.

// PrometheusContentType is the Content-Type for /metrics responses.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// sanitizeName maps a dotted metric or label name onto the exposition
// format's identifier alphabet.
func sanitizeName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promName sanitizes a dotted metric name into a Prometheus identifier.
func promName(name string) string {
	return "dmac_" + sanitizeName(name)
}

// escapeLabelValue applies the exposition-format escaping rules for label
// values: backslash, double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// promLabels renders a label set as {k="v",...} with keys in sorted order;
// empty sets render as nothing.
func promLabels(labels map[string]string, extra ...string) string {
	if len(labels) == 0 && len(extra) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	first := true
	emit := func(k, v string) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(sanitizeName(k))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(v))
		b.WriteByte('"')
	}
	for _, k := range keys {
		emit(k, labels[k])
	}
	for i := 0; i+1 < len(extra); i += 2 {
		emit(extra[i], extra[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// promFloat formats a sample value; Prometheus accepts Go's shortest
// representation, with +Inf spelled explicitly.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeHistogramSamples(w io.Writer, name string, labels map[string]string, hs HistogramSnapshot) error {
	var cum int64
	for i, bound := range hs.Bounds {
		cum += hs.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, promLabels(labels, "le", promFloat(bound)), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, promLabels(labels, "le", "+Inf"), hs.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, promLabels(labels), promFloat(hs.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, promLabels(labels), hs.Count)
	return err
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format: one "# TYPE" header per family followed by its samples, families
// sorted by exposition name, children in the snapshot's (deterministic)
// order. Two families that map to one exposition name (a gauge and a
// histogram registered under the same dotted name, say) are an error,
// reported before anything is written: a scrape that silently kept one of
// them would hide the other for good.
func WritePrometheus(w io.Writer, snap MetricsSnapshot) error {
	type family struct {
		kind  string // "counter" | "gauge" | "histogram"
		write func(io.Writer, string) error
	}
	families := make(map[string]family)
	var collision error
	add := func(name, kind string, write func(io.Writer, string) error) {
		if prev, ok := families[name]; ok && collision == nil {
			collision = fmt.Errorf("obs: %s is both a %s and a %s", name, prev.kind, kind)
		}
		families[name] = family{kind: kind, write: write}
	}

	for name, v := range snap.Counters {
		v := v
		add(promName(name)+"_total", "counter", func(w io.Writer, n string) error {
			_, err := fmt.Fprintf(w, "%s %d\n", n, v)
			return err
		})
	}
	for name, children := range snap.CounterVecs {
		children := children
		add(promName(name)+"_total", "counter", func(w io.Writer, n string) error {
			for _, ch := range children {
				if _, err := fmt.Fprintf(w, "%s%s %d\n", n, promLabels(ch.Labels), ch.Value); err != nil {
					return err
				}
			}
			return nil
		})
	}
	for name, v := range snap.Gauges {
		v := v
		add(promName(name), "gauge", func(w io.Writer, n string) error {
			_, err := fmt.Fprintf(w, "%s %s\n", n, promFloat(v))
			return err
		})
	}
	for name, children := range snap.GaugeVecs {
		children := children
		add(promName(name), "gauge", func(w io.Writer, n string) error {
			for _, ch := range children {
				if _, err := fmt.Fprintf(w, "%s%s %s\n", n, promLabels(ch.Labels), promFloat(ch.Value)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	for name, hs := range snap.Histograms {
		hs := hs
		add(promName(name), "histogram", func(w io.Writer, n string) error {
			return writeHistogramSamples(w, n, nil, hs)
		})
	}
	for name, children := range snap.HistogramVecs {
		children := children
		add(promName(name), "histogram", func(w io.Writer, n string) error {
			for _, ch := range children {
				if err := writeHistogramSamples(w, n, ch.Labels, ch.Hist); err != nil {
					return err
				}
			}
			return nil
		})
	}

	if collision != nil {
		return collision
	}
	names := make([]string, 0, len(families))
	for n := range families {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := families[n]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", n, f.kind); err != nil {
			return err
		}
		if err := f.write(w, n); err != nil {
			return err
		}
	}
	return nil
}
