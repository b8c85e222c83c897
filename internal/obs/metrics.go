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
// checks. Each kind's families live in one map, a plain metric under its
// name and a labeled family beside it (familyKey), so that a plain metric and
// a family of one name stay two metrics and collide at exposition.
type Registry struct {
	mu         sync.Mutex
	counters   map[familyKey]*CounterVec
	gauges     map[familyKey]*GaugeVec
	histograms map[familyKey]*HistogramVec
}

// familyKey names a registered family; labeled tells a family made by a
// *Vec accessor from a plain metric's unlabeled one.
type familyKey struct {
	name    string
	labeled bool
}

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[familyKey]*CounterVec),
		gauges:     make(map[familyKey]*GaugeVec),
		histograms: make(map[familyKey]*HistogramVec),
	}
}

// family returns r's family of kind k under key, creating it with the given
// bounds and label names on first use (later calls reuse the existing family
// whatever their bounds and label names). A nil registry returns nil.
func family[M, S any](r *Registry, k *kind[M, S], key familyKey, bounds []float64, labels []string) *Family[M, S] {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := k.of(r)
	f, ok := fams[key]
	if !ok {
		f = &Family[M, S]{
			kind:     k,
			labels:   append([]string(nil), labels...),
			bounds:   append([]float64(nil), bounds...),
			children: make(map[string]*child[M]),
		}
		fams[key] = f
	}
	return f
}

// Counter returns the named counter, creating it on first use. Nil registry
// returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	return family(r, counters, familyKey{name, false}, nil, nil).With()
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return family(r, gauges, familyKey{name, false}, nil, nil).With()
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use (later calls reuse the existing buckets regardless of
// bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return family(r, histograms, familyKey{name, false}, bounds, nil).With()
}

// CounterVec returns the named counter family with the given label names,
// creating it on first use (later calls reuse the existing family regardless
// of label names, matching Histogram's treatment of bounds).
func (r *Registry) CounterVec(name string, labelNames ...string) *CounterVec {
	return family(r, counters, familyKey{name, true}, nil, labelNames)
}

// GaugeVec returns the named gauge family, creating it on first use.
func (r *Registry) GaugeVec(name string, labelNames ...string) *GaugeVec {
	return family(r, gauges, familyKey{name, true}, nil, labelNames)
}

// HistogramVec returns the named histogram family whose children share the
// given bounds, creating it on first use.
func (r *Registry) HistogramVec(name string, bounds []float64, labelNames ...string) *HistogramVec {
	return family(r, histograms, familyKey{name, true}, bounds, labelNames)
}

// Lazy holds a set of instruments resolved on first use: the first Get
// calls resolve, and every later Get returns what it made with one atomic
// load. Instrumented code keeps one per set of metrics it observes together,
// in a struct made when a registry is attached, so an event neither builds a
// metric name nor takes the registry's lock, and a metric never observed
// never appears in a snapshot. Concurrent first calls may each resolve; one
// result is kept, which is harmless because registry accessors return the
// same metric for the same name.
type Lazy[T any] struct{ p atomic.Pointer[T] }

// Get returns the held instruments, calling resolve to make them first if
// there are none yet.
func (l *Lazy[T]) Get(resolve func() *T) *T {
	if p := l.p.Load(); p != nil {
		return p
	}
	l.p.CompareAndSwap(nil, resolve())
	return l.p.Load()
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
	walk(r.counters, snap.Counters, &snap.CounterVecs, (*Counter).Value)
	walk(r.gauges, snap.Gauges, &snap.GaugeVecs, (*Gauge).Value)
	walk(r.histograms, snap.Histograms, &snap.HistogramVecs, (*Histogram).snapshot)
	return snap
}

// walk copies one kind's families into a snapshot: a plain metric's value
// into plain, a labeled family's children into *vecs (made on first use, so
// a registry without families of the kind leaves it nil).
func walk[M, S, V any](fams map[familyKey]*Family[M, S], plain map[string]V, vecs *map[string][]S, value func(*M) V) {
	for key, f := range fams {
		if !key.labeled {
			plain[key.name] = value(f.With())
			continue
		}
		if *vecs == nil {
			*vecs = make(map[string][]S)
		}
		(*vecs)[key.name] = f.Snapshot()
	}
}
