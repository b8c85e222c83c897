package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. A nil *Counter is a
// valid no-op receiver.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value float metric. A nil *Gauge is a valid no-op
// receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bounds are upper bucket
// edges; one implicit overflow bucket catches everything above the last
// bound. A nil *Histogram is a valid no-op receiver.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is overflow
	count  atomic.Int64
	sumMu  sync.Mutex
	sum    float64
}

// newHistogram creates a histogram over the given ascending bounds.
func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumMu.Lock()
	h.sum += v
	h.sumMu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.sumMu.Lock()
	defer h.sumMu.Unlock()
	return h.sum
}

// snapshot copies the histogram's current state.
func (h *Histogram) snapshot() HistogramSnapshot {
	hs := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.Count(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		hs.Counts[i] = h.counts[i].Load()
	}
	return hs
}

// Quantile estimates the q-quantile (q in [0,1]) of the observed
// distribution by linear interpolation within the bucket containing the
// target rank. See HistogramSnapshot.Quantile for the estimation contract.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return h.snapshot().Quantile(q)
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the upper bucket edges; Counts has one extra entry for the
	// overflow bucket.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Quantile estimates the q-quantile by linear interpolation within the
// bucket containing the target rank, assuming observations spread uniformly
// inside each bucket. The first bucket interpolates from 0 (all layouts in
// this package are non-negative); ranks landing in the overflow bucket clamp
// to the highest bound, since the overflow bucket has no upper edge to
// interpolate toward. An empty histogram reports 0; q is clamped to [0,1].
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			if i >= len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1]
			}
			var lo float64
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Default bucket layouts. Byte buckets are powers of 4 from 256 B to 4 GiB;
// second buckets are powers of 10 from 1 µs to 100 s; task buckets are
// powers of 4 from 1 to 16384; GFLOPS buckets are powers of 2 from
// 1/64 GFLOPS to 512 GFLOPS, covering scalar Go kernels through vectorized
// BLAS.
var (
	BytesBuckets   = geometric(256, 4, 12)
	SecondsBuckets = geometric(1e-6, 10, 9)
	TasksBuckets   = geometric(1, 4, 8)
	GFLOPSBuckets  = geometric(1.0/64, 2, 16)
)

func geometric(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry owns named metrics. Metric accessors create on first use, so
// instrumented code never registers up front. All methods are safe for
// concurrent use, and all methods on a nil *Registry return nil metrics —
// which are themselves no-op receivers — so disabled metrics cost only nil
// checks.
type Registry struct {
	mu          sync.Mutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	hists       map[string]*Histogram
	counterVecs map[string]*CounterVec
	gaugeVecs   map[string]*GaugeVec
	histVecs    map[string]*HistogramVec
}

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    make(map[string]*Counter),
		gauges:      make(map[string]*Gauge),
		hists:       make(map[string]*Histogram),
		counterVecs: make(map[string]*CounterVec),
		gaugeVecs:   make(map[string]*GaugeVec),
		histVecs:    make(map[string]*HistogramVec),
	}
}

// Counter returns the named counter, creating it on first use. Nil registry
// returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
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
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use (later calls reuse the existing buckets regardless of
// bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// CounterVec returns the named counter family with the given label names,
// creating it on first use (later calls reuse the existing family regardless
// of label names, matching Histogram's treatment of bounds).
func (r *Registry) CounterVec(name string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.counterVecs[name]
	if !ok {
		v = newCounterVec(labelNames)
		r.counterVecs[name] = v
	}
	return v
}

// GaugeVec returns the named gauge family, creating it on first use.
func (r *Registry) GaugeVec(name string, labelNames ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.gaugeVecs[name]
	if !ok {
		v = newGaugeVec(labelNames)
		r.gaugeVecs[name] = v
	}
	return v
}

// HistogramVec returns the named histogram family whose children share the
// given bounds, creating it on first use.
func (r *Registry) HistogramVec(name string, bounds []float64, labelNames ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.histVecs[name]
	if !ok {
		v = newHistogramVec(bounds, labelNames)
		r.histVecs[name] = v
	}
	return v
}

// MetricsSnapshot is a point-in-time copy of every metric in a registry,
// shaped for JSON export. Labeled families appear separately from plain
// metrics, each child carrying its label set.
type MetricsSnapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`

	CounterVecs   map[string][]LabeledCounterSnapshot   `json:"counter_vecs,omitempty"`
	GaugeVecs     map[string][]LabeledGaugeSnapshot     `json:"gauge_vecs,omitempty"`
	HistogramVecs map[string][]LabeledHistogramSnapshot `json:"histogram_vecs,omitempty"`
}

// Snapshot copies all metrics. Nil registry yields an empty snapshot.
func (r *Registry) Snapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		snap.Histograms[name] = h.snapshot()
	}
	if len(r.counterVecs) > 0 {
		snap.CounterVecs = make(map[string][]LabeledCounterSnapshot, len(r.counterVecs))
		for name, v := range r.counterVecs {
			snap.CounterVecs[name] = v.Snapshot()
		}
	}
	if len(r.gaugeVecs) > 0 {
		snap.GaugeVecs = make(map[string][]LabeledGaugeSnapshot, len(r.gaugeVecs))
		for name, v := range r.gaugeVecs {
			snap.GaugeVecs[name] = v.Snapshot()
		}
	}
	if len(r.histVecs) > 0 {
		snap.HistogramVecs = make(map[string][]LabeledHistogramSnapshot, len(r.histVecs))
		for name, v := range r.histVecs {
			snap.HistogramVecs[name] = v.Snapshot()
		}
	}
	return snap
}
