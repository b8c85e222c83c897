package serve

import (
	"slices"
	"sync"

	"dmac/internal/obs"
)

// flightRecorder is the always-on trace ring: the finished span tree of
// every completed job, kept for the most recent N jobs, so GET
// /v1/jobs/{id}/trace can hand back a Chrome trace for any recent job
// without restarting the server or passing flags up front. Each engine slot
// owns a private tracer and runs one job at a time, so a slot's spans
// between job start and finish are exactly that job's tree; runJob drains
// the tracer into the recorder at the terminal transition, which also bounds
// tracer memory over a server's lifetime.
//
// A trace is kept packed (obs.PackSpans): one pointer-free []byte a job,
// decoded only when JobTrace asks for it. bytes is the packed traces' total,
// shown as /v1/stats traces_retained_bytes and the gauge
// serve.traces.retained.bytes.
type flightRecorder struct {
	mu       sync.Mutex
	capacity int
	order    []string // job IDs, oldest first
	traces   map[string][]byte
	bytes    int64
	gauge    *obs.Gauge // serve.traces.retained.bytes, set by NewService
}

const defaultFlightRecorderJobs = 256

func newFlightRecorder(capacity int) *flightRecorder {
	if capacity <= 0 {
		capacity = defaultFlightRecorderJobs
	}
	// Sized for capacity jobs, and evicting by moving the order down, the
	// recorder allocates nothing of its own once it is full.
	return &flightRecorder{capacity: capacity, order: make([]string, 0, capacity), traces: make(map[string][]byte, capacity)}
}

// record stores one job's packed spans, evicting the oldest recorded job
// when full.
func (f *flightRecorder) record(id string, packed []byte) {
	if f == nil || len(packed) == 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if old, exists := f.traces[id]; exists {
		f.bytes -= int64(len(old))
	} else {
		for len(f.order) >= f.capacity {
			evict := f.order[0]
			f.order = slices.Delete(f.order, 0, 1)
			f.bytes -= int64(len(f.traces[evict]))
			delete(f.traces, evict)
		}
		f.order = append(f.order, id)
	}
	f.traces[id] = packed
	f.bytes += int64(len(packed))
	f.gauge.Set(float64(f.bytes))
}

// get returns the recorded spans for a job, decoded, if still in the ring.
func (f *flightRecorder) get(id string) ([]obs.Span, bool) {
	if f == nil {
		return nil, false
	}
	f.mu.Lock()
	packed, ok := f.traces[id]
	f.mu.Unlock()
	if !ok {
		return nil, false
	}
	spans, err := obs.UnpackSpans(packed)
	if err != nil {
		// The recorder holds only what obs.PackSpans wrote.
		panic(err)
	}
	return spans, true
}

// retainedBytes is the packed traces' total.
func (f *flightRecorder) retainedBytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bytes
}

// ids returns the recorded job IDs, oldest first.
func (f *flightRecorder) ids() []string {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.order...)
}
