package serve

import (
	"reflect"
	"sync"
	"testing"

	"dmac/internal/obs"
	"dmac/internal/workload"
)

// TestJobTraceIsTheSlotsSpans: for one job of each registry workload, the
// trace the flight recorder hands back is, field for field, what the slot's
// tracer held just before the drain packed it; and the recorder's packed
// bytes are what /v1/stats reports.
func TestJobTraceIsTheSlotsSpans(t *testing.T) {
	s := newTestService(t, testOptions())
	var mu sync.Mutex
	drained := make(map[string][]obs.Span)
	s.beforeDrain = func(id string, spans []obs.Span) {
		mu.Lock()
		defer mu.Unlock()
		drained[id] = spans
	}
	specs := []JobSpec{
		{Tenant: "alice", Workload: "pagerank", Params: workload.Params{"nodes": 48, "iters": 2, "seed": 3}},
		gramSpec(4),
		{Tenant: "bob", Workload: "blend", Params: workload.Params{"n": 32, "k": 4, "seed": 2}},
	}
	if len(specs) != len(workload.DefaultRegistry().Names()) {
		t.Fatalf("%d specs for the registry's %d workloads", len(specs), len(workload.DefaultRegistry().Names()))
	}
	var want int64
	for _, spec := range specs {
		st := runDone(t, s, spec)
		got, err := s.JobTrace(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		spans := drained[st.ID]
		mu.Unlock()
		if len(spans) == 0 {
			t.Fatalf("%s: no spans drained", spec.Workload)
		}
		if !reflect.DeepEqual(got, spans) {
			t.Errorf("%s: JobTrace differs from the slot's spans", spec.Workload)
			for i := range min(len(got), len(spans)) {
				if !reflect.DeepEqual(got[i], spans[i]) {
					t.Fatalf("span %d: %+v, want %+v", i, got[i], spans[i])
				}
			}
			t.Fatalf("%d spans, want %d", len(got), len(spans))
		}
		want += int64(len(obs.PackSpans(spans)))
	}
	if got := s.Stats().TracesRetainedBytes; got != want {
		t.Errorf("traces_retained_bytes = %d, want the packed traces' %d", got, want)
	}
}

// TestTracesRetainedBytesFollowTheRing: the recorder's byte count rises with
// every recorded trace, falls with every one the ring drops, and is the
// packed traces' sum throughout.
func TestTracesRetainedBytesFollowTheRing(t *testing.T) {
	reg := obs.NewRegistry()
	f := newFlightRecorder(2)
	f.gauge = reg.Gauge("serve.traces.retained.bytes")
	a, b, c := testSpans("a"), testSpans("bb"), testSpans("ccc")
	f.record("j1", a)
	f.record("j2", b)
	if got, want := f.retainedBytes(), int64(len(a)+len(b)); got != want {
		t.Fatalf("two traces: %d bytes, want %d", got, want)
	}
	f.record("j3", c) // drops j1
	f.record("j2", a) // replaces j2's trace
	want := int64(len(a) + len(c))
	if got := f.retainedBytes(); got != want {
		t.Fatalf("after eviction and replacement: %d bytes, want %d", got, want)
	}
	if got := reg.Gauge("serve.traces.retained.bytes").Value(); got != float64(want) {
		t.Fatalf("gauge reads %v, want %d", got, want)
	}
}
