package serve

import (
	"maps"
	"reflect"
	"strings"
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

// TestJobSpanTree pins the shape of one served job's trace: the job's root
// span, under it each iteration's run and the rewrite pass, and the engine's
// stage tree under each run. Edges are (span, parent) kinds, "-" for a root;
// IDs are not compared.
func TestJobSpanTree(t *testing.T) {
	s := newTestService(t, testOptions())
	st := runDone(t, s, JobSpec{Tenant: "alice", Workload: "pagerank",
		Params: workload.Params{"nodes": 48, "iters": 2, "seed": 3}})
	spans, err := s.JobTrace(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	kind := make(map[obs.SpanID]string, len(spans))
	for _, sp := range spans {
		name := sp.Name
		if sp.Cat == "engine" && strings.HasPrefix(name, "stage ") {
			name = "stage N"
		}
		kind[sp.ID] = sp.Cat + "/" + name
	}
	got := make(map[string]int)
	for _, sp := range spans {
		parent := "-"
		if sp.Parent != 0 {
			var ok bool
			if parent, ok = kind[sp.Parent]; !ok {
				parent = "?"
			}
		}
		got[kind[sp.ID]+" < "+parent]++
	}
	want := map[string]int{
		"comm/broadcast < op/broadcast":                             2,
		"comm/partition < op/partition":                             2,
		"engine/attempt < engine/stage N":                           4,
		"engine/rewrite < serve/job":                                1,
		"engine/run < serve/job":                                    2,
		"engine/stage N < engine/run":                               4,
		"op/broadcast < engine/attempt":                             2,
		"op/compute (m3 *c(0.85)) + (m2 *c(0.15)) < engine/attempt": 2,
		"op/compute m1 %*% m0 < engine/attempt":                     2,
		"op/partition < engine/attempt":                             2,
		"op/var var(D) < engine/attempt":                            2,
		"op/var var(link) < engine/attempt":                         2,
		"op/var var(rank) < engine/attempt":                         2,
		"rewrite/fuse-cellwise < engine/rewrite":                    1,
		"rewrite/sparsity-refine < engine/rewrite":                  1,
		"sched/batch < op/compute (m3 *c(0.85)) + (m2 *c(0.15))":    2,
		"sched/batch < op/compute m1 %*% m0":                        2,
		"serve/job < -":                                             1,
	}
	if !maps.Equal(got, want) {
		t.Errorf("span tree %v, want %v", got, want)
	}
	if len(spans) != 36 {
		t.Errorf("%d spans, want 36", len(spans))
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
