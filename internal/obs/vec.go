package obs

import (
	"sort"
	"strconv"
	"sync"
)

// Labeled metric families. A *Vec is a family of metrics of one kind sharing
// a name and a fixed set of label names; With resolves one child metric per
// distinct label-value tuple, creating it on first use. Children are ordinary
// *Counter/*Gauge/*Histogram values, so the hot path after resolution is
// identical to unlabeled metrics — callers that observe repeatedly for the
// same labels should hold the child, not re-resolve it.
//
// Like everything else in this package, nil receivers are valid no-ops:
// a nil *CounterVec yields a nil *Counter from With, which itself ignores
// Add. A With call whose value count does not match the family's label names
// also yields the nil no-op metric (a forgiving contract, matching
// Registry.Histogram's treatment of mismatched bounds).

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

// labelMap zips label names and values into the snapshot's map form.
func labelMap(names, values []string) map[string]string {
	m := make(map[string]string, len(names))
	for i, n := range names {
		m[n] = values[i]
	}
	return m
}

// CounterVec is a family of counters keyed by label values.
type CounterVec struct {
	names    []string
	mu       sync.RWMutex
	children map[string]*labeledCounter
}

type labeledCounter struct {
	values []string
	c      Counter
}

func newCounterVec(names []string) *CounterVec {
	return &CounterVec{names: append([]string(nil), names...), children: make(map[string]*labeledCounter)}
}

// With returns the child counter for the given label values (one per label
// name, in declaration order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil || len(values) != len(v.names) {
		return nil
	}
	k := labelKey(values)
	v.mu.RLock()
	ch, ok := v.children[k]
	v.mu.RUnlock()
	if !ok {
		v.mu.Lock()
		ch, ok = v.children[k]
		if !ok {
			ch = &labeledCounter{values: append([]string(nil), values...)}
			v.children[k] = ch
		}
		v.mu.Unlock()
	}
	return &ch.c
}

// GaugeVec is a family of gauges keyed by label values.
type GaugeVec struct {
	names    []string
	mu       sync.RWMutex
	children map[string]*labeledGauge
}

type labeledGauge struct {
	values []string
	g      Gauge
}

func newGaugeVec(names []string) *GaugeVec {
	return &GaugeVec{names: append([]string(nil), names...), children: make(map[string]*labeledGauge)}
}

// With returns the child gauge for the given label values, creating it on
// first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil || len(values) != len(v.names) {
		return nil
	}
	k := labelKey(values)
	v.mu.RLock()
	ch, ok := v.children[k]
	v.mu.RUnlock()
	if !ok {
		v.mu.Lock()
		ch, ok = v.children[k]
		if !ok {
			ch = &labeledGauge{values: append([]string(nil), values...)}
			v.children[k] = ch
		}
		v.mu.Unlock()
	}
	return &ch.g
}

// HistogramVec is a family of histograms keyed by label values; every child
// shares the family's bucket bounds.
type HistogramVec struct {
	names    []string
	bounds   []float64
	mu       sync.RWMutex
	children map[string]*labeledHistogram
}

type labeledHistogram struct {
	values []string
	h      *Histogram
}

func newHistogramVec(bounds []float64, names []string) *HistogramVec {
	return &HistogramVec{
		names:    append([]string(nil), names...),
		bounds:   append([]float64(nil), bounds...),
		children: make(map[string]*labeledHistogram),
	}
}

// With returns the child histogram for the given label values, creating it
// with the family's bounds on first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil || len(values) != len(v.names) {
		return nil
	}
	k := labelKey(values)
	v.mu.RLock()
	ch, ok := v.children[k]
	v.mu.RUnlock()
	if !ok {
		v.mu.Lock()
		ch, ok = v.children[k]
		if !ok {
			ch = &labeledHistogram{values: append([]string(nil), values...), h: newHistogram(v.bounds)}
			v.children[k] = ch
		}
		v.mu.Unlock()
	}
	return ch.h
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

// sortedKeys returns the children keys in deterministic order, so snapshots
// and expositions are stable.
func sortedKeys[T any](m map[string]T) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Snapshot copies the family's children, ordered by label values.
func (v *CounterVec) Snapshot() []LabeledCounterSnapshot {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]LabeledCounterSnapshot, 0, len(v.children))
	for _, k := range sortedKeys(v.children) {
		ch := v.children[k]
		out = append(out, LabeledCounterSnapshot{Labels: labelMap(v.names, ch.values), Value: ch.c.Value()})
	}
	return out
}

// Snapshot copies the family's children, ordered by label values.
func (v *GaugeVec) Snapshot() []LabeledGaugeSnapshot {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]LabeledGaugeSnapshot, 0, len(v.children))
	for _, k := range sortedKeys(v.children) {
		ch := v.children[k]
		out = append(out, LabeledGaugeSnapshot{Labels: labelMap(v.names, ch.values), Value: ch.g.Value()})
	}
	return out
}

// Snapshot copies the family's children, ordered by label values.
func (v *HistogramVec) Snapshot() []LabeledHistogramSnapshot {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]LabeledHistogramSnapshot, 0, len(v.children))
	for _, k := range sortedKeys(v.children) {
		ch := v.children[k]
		out = append(out, LabeledHistogramSnapshot{Labels: labelMap(v.names, ch.values), Hist: ch.h.snapshot()})
	}
	return out
}
