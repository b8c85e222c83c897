package sched

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"dmac/internal/obs"
)

// TestForEachErrTraced checks the batch span the executor emits around a
// traced ForEachErr: task count, queue-wait/compute split, and parenting
// under the span its context carries. Run under -race this also exercises the
// tracer from all pool workers at once.
func TestForEachErrTraced(t *testing.T) {
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	e := NewExecutor(4, nil)
	e.SetObserver(tr, reg)

	root := tr.Start("engine", "op", 0)
	const n = 64
	var ran atomic.Int64
	err := e.ForEachErr(obs.ContextWithSpan(context.Background(), root), n, func(i int) error {
		// Workers emit nested spans of their own; under -race this verifies
		// tracer internals against the batch span bookkeeping.
		id := tr.Start("sched", "task", root, obs.Int64("i", int64(i)))
		ran.Add(1)
		tr.End(id)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.End(root)

	if ran.Load() != n {
		t.Fatalf("ran %d tasks, want %d", ran.Load(), n)
	}
	var batch *obs.Span
	spans := tr.Spans()
	for i := range spans {
		if spans[i].Cat == "sched" && spans[i].Name == "batch" {
			if batch != nil {
				t.Fatal("more than one batch span")
			}
			batch = &spans[i]
		}
	}
	if batch == nil {
		t.Fatal("no batch span recorded")
	}
	if batch.Parent != root {
		t.Fatalf("batch parented to %d, want the context's %d", batch.Parent, root)
	}
	if a, ok := batch.Attr("tasks"); !ok || a.Int != n {
		t.Fatalf("tasks attr = %+v, want %d", a, n)
	}
	if a, ok := batch.Attr("compute_s"); !ok || a.Float < 0 {
		t.Fatalf("compute_s attr = %+v", a)
	}
	if a, ok := batch.Attr("queue_wait_s"); !ok || a.Float < 0 {
		t.Fatalf("queue_wait_s attr = %+v", a)
	}
	taskSpans := 0
	for _, s := range spans {
		if s.Name == "task" {
			taskSpans++
		}
	}
	if taskSpans != n {
		t.Fatalf("got %d task spans, want %d", taskSpans, n)
	}
	snap := reg.Snapshot()
	h, ok := snap.Histograms["sched.batch.tasks"]
	if !ok || h.Count != 1 || h.Sum != n {
		t.Fatalf("sched.batch.tasks histogram = %+v", h)
	}
	if _, ok := snap.Histograms["sched.batch.compute.seconds"]; !ok {
		t.Fatal("sched.batch.compute.seconds histogram missing")
	}
}

// TestForEachErrTracedError checks instrumentation does not change
// ForEachErr's error semantics: the first error wins and the batch span is
// still closed.
func TestForEachErrTracedError(t *testing.T) {
	tr := obs.NewTracer()
	e := NewExecutor(4, nil)
	e.SetObserver(tr, nil)
	boom := errors.New("boom")
	err := e.ForEachErr(context.Background(), 16, func(i int) error {
		if i == 7 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	closed := false
	for _, s := range tr.Spans() {
		if s.Cat == "sched" && s.Name == "batch" {
			closed = true
		}
	}
	if !closed {
		t.Fatal("batch span not closed on error")
	}
}

// TestForEachErrUntracedUnchanged pins the zero-observer fast path: no
// observer, no spans, same results.
func TestForEachErrUntracedUnchanged(t *testing.T) {
	e := NewExecutor(4, nil)
	var ran atomic.Int64
	if err := e.ForEachErr(context.Background(), 32, func(i int) error { ran.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 32 {
		t.Fatalf("ran %d, want 32", ran.Load())
	}
}
