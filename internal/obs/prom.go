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

// labelValueEscaper applies the exposition-format escaping rules for label
// values: backslash, double quote and newline.
var labelValueEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

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
		labelValueEscaper.WriteString(&b, v)
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

// promSample is one child of a family as the exposition writes it, under
// the family's exposition name.
type promSample interface {
	writeProm(w io.Writer, name string) error
}

func (s LabeledCounterSnapshot) writeProm(w io.Writer, name string) error {
	_, err := fmt.Fprintf(w, "%s%s %d\n", name, promLabels(s.Labels), s.Value)
	return err
}

func (s LabeledGaugeSnapshot) writeProm(w io.Writer, name string) error {
	_, err := fmt.Fprintf(w, "%s%s %s\n", name, promLabels(s.Labels), promFloat(s.Value))
	return err
}

func (s LabeledHistogramSnapshot) writeProm(w io.Writer, name string) error {
	return writeHistogramSamples(w, name, s.Labels, s.Hist)
}

// exposition collects the families of a scrape by exposition name, keeping
// the first name two families share as the scrape's error.
type exposition struct {
	families  map[string]promFamily
	collision error
}

type promFamily struct {
	kind  string // "counter" | "gauge" | "histogram"
	write func(w io.Writer, name string) error
}

// addKind adds one kind's plain metrics and labeled families to the
// exposition, a plain metric as a family of one unlabeled child.
func addKind[V any, S promSample](e *exposition, kind, suffix string, plain map[string]V, vecs map[string][]S, only func(V) S) {
	add := func(name string, children []S) {
		n := promName(name) + suffix
		if prev, ok := e.families[n]; ok && e.collision == nil {
			e.collision = fmt.Errorf("obs: %s is both a %s and a %s", n, prev.kind, kind)
		}
		e.families[n] = promFamily{kind: kind, write: func(w io.Writer, n string) error {
			for _, ch := range children {
				if err := ch.writeProm(w, n); err != nil {
					return err
				}
			}
			return nil
		}}
	}
	for name, v := range plain {
		add(name, []S{only(v)})
	}
	for name, children := range vecs {
		add(name, children)
	}
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format: one "# TYPE" header per family followed by its samples, families
// sorted by exposition name, children in the snapshot's (deterministic)
// order. Two families that map to one exposition name (a gauge and a
// histogram registered under the same dotted name, say) are an error,
// reported before anything is written: a scrape that silently kept one of
// them would hide the other for good.
func WritePrometheus(w io.Writer, snap MetricsSnapshot) error {
	e := &exposition{families: make(map[string]promFamily)}
	addKind(e, "counter", "_total", snap.Counters, snap.CounterVecs,
		func(v int64) LabeledCounterSnapshot { return LabeledCounterSnapshot{Value: v} })
	addKind(e, "gauge", "", snap.Gauges, snap.GaugeVecs,
		func(v float64) LabeledGaugeSnapshot { return LabeledGaugeSnapshot{Value: v} })
	addKind(e, "histogram", "", snap.Histograms, snap.HistogramVecs,
		func(h HistogramSnapshot) LabeledHistogramSnapshot { return LabeledHistogramSnapshot{Hist: h} })
	if e.collision != nil {
		return e.collision
	}
	names := make([]string, 0, len(e.families))
	for n := range e.families {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := e.families[n]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", n, f.kind); err != nil {
			return err
		}
		if err := f.write(w, n); err != nil {
			return err
		}
	}
	return nil
}
