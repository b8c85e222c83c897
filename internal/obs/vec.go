package obs

import (
	"sort"
	"strconv"
	"sync"
)

// Metric families. A Family is a set of metrics of one kind sharing a name
// and a fixed set of label names; With resolves one child metric per
// distinct label-value tuple, creating it on first use. CounterVec, GaugeVec
// and HistogramVec are the family of each kind, and a plain Counter, Gauge or
// Histogram in a Registry is the one child of a family with no labels.
// Children are ordinary *Counter/*Gauge/*Histogram values, so the hot path
// after resolution is the same for labeled and unlabeled metrics — callers
// that observe repeatedly for the same labels should hold the child, not
// re-resolve it.
//
// Like everything else in this package, nil receivers are valid no-ops:
// a nil *CounterVec yields a nil *Counter from With, which itself ignores
// Add. A With call whose value count does not match the family's label names
// also yields the nil no-op metric (a forgiving contract, matching
// Registry.Histogram's treatment of mismatched bounds).

// Family is a set of metrics of type M keyed by label values; S is the
// snapshot of one child.
type Family[M, S any] struct {
	kind     *kind[M, S]
	labels   []string
	bounds   []float64 // every histogram child's bucket bounds
	mu       sync.RWMutex
	children map[string]*child[M]
}

// CounterVec is a family of counters keyed by label values.
type CounterVec = Family[Counter, LabeledCounterSnapshot]

// GaugeVec is a family of gauges keyed by label values.
type GaugeVec = Family[Gauge, LabeledGaugeSnapshot]

// HistogramVec is a family of histograms keyed by label values; every child
// shares the family's bucket bounds.
type HistogramVec = Family[Histogram, LabeledHistogramSnapshot]

type child[M any] struct {
	values []string
	m      *M
}

// kind is what a family needs of its metric type: how to make a child, how
// to copy one into a snapshot, and where a registry keeps families of it.
type kind[M, S any] struct {
	make   func(bounds []float64) *M
	sample func(labels map[string]string, m *M) S
	of     func(*Registry) map[familyKey]*Family[M, S]
}

var (
	counters = &kind[Counter, LabeledCounterSnapshot]{
		make: func([]float64) *Counter { return new(Counter) },
		sample: func(labels map[string]string, c *Counter) LabeledCounterSnapshot {
			return LabeledCounterSnapshot{Labels: labels, Value: c.Value()}
		},
		of: func(r *Registry) map[familyKey]*CounterVec { return r.counters },
	}
	gauges = &kind[Gauge, LabeledGaugeSnapshot]{
		make: func([]float64) *Gauge { return new(Gauge) },
		sample: func(labels map[string]string, g *Gauge) LabeledGaugeSnapshot {
			return LabeledGaugeSnapshot{Labels: labels, Value: g.Value()}
		},
		of: func(r *Registry) map[familyKey]*GaugeVec { return r.gauges },
	}
	histograms = &kind[Histogram, LabeledHistogramSnapshot]{
		make: newHistogram,
		sample: func(labels map[string]string, h *Histogram) LabeledHistogramSnapshot {
			return LabeledHistogramSnapshot{Labels: labels, Hist: h.snapshot()}
		},
		of: func(r *Registry) map[familyKey]*HistogramVec { return r.histograms },
	}
)

// labelKey builds an unambiguous map key from label values using
// length-prefixed encoding (a plain separator join would collide when values
// contain the separator).
func labelKey(values []string) string {
	n := 0
	for _, v := range values {
		n += len(v) + 8
	}
	b := make([]byte, 0, n)
	for _, v := range values {
		b = strconv.AppendInt(b, int64(len(v)), 10)
		b = append(b, ':')
		b = append(b, v...)
	}
	return string(b)
}

// With returns the child metric for the given label values (one per label
// name, in declaration order), creating it on first use; a histogram child
// gets the family's bounds.
func (f *Family[M, S]) With(values ...string) *M {
	if f == nil || len(values) != len(f.labels) {
		return nil
	}
	k := labelKey(values)
	f.mu.RLock()
	ch, ok := f.children[k]
	f.mu.RUnlock()
	if !ok {
		f.mu.Lock()
		ch, ok = f.children[k]
		if !ok {
			ch = &child[M]{values: append([]string(nil), values...), m: f.kind.make(f.bounds)}
			f.children[k] = ch
		}
		f.mu.Unlock()
	}
	return ch.m
}

// Snapshot copies the family's children in a fixed order: by their
// length-prefixed label keys.
func (f *Family[M, S]) Snapshot() []S {
	if f == nil {
		return nil
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]S, 0, len(keys))
	for _, k := range keys {
		ch := f.children[k]
		labels := make(map[string]string, len(f.labels))
		for i, name := range f.labels {
			labels[name] = ch.values[i]
		}
		out = append(out, f.kind.sample(labels, ch.m))
	}
	return out
}

// LabeledCounterSnapshot is one counter child in a family snapshot.
type LabeledCounterSnapshot struct {
	Labels map[string]string `json:"labels"`
	Value  int64             `json:"value"`
}

// LabeledGaugeSnapshot is one gauge child in a family snapshot.
type LabeledGaugeSnapshot struct {
	Labels map[string]string `json:"labels"`
	Value  float64           `json:"value"`
}

// LabeledHistogramSnapshot is one histogram child in a family snapshot.
type LabeledHistogramSnapshot struct {
	Labels map[string]string `json:"labels"`
	Hist   HistogramSnapshot `json:"hist"`
}
