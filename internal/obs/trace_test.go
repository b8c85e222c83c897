package obs

import (
	"context"
	"sync"
	"testing"
)

// fakeClock returns a deterministic clock that advances by step nanoseconds
// per reading.
func fakeClock(step int64) func() int64 {
	var now int64
	return func() int64 {
		now += step
		return now
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	id := tr.Start("engine", "run", 0, String("k", "v"))
	if id != 0 {
		t.Fatalf("nil tracer Start = %d, want 0", id)
	}
	tr.End(id)
	tr.Event("comm", "shuffle", 0)
	if got := tr.Parent(ContextWithSpan(context.Background(), 7)); got != 0 {
		t.Fatalf("nil tracer Parent = %d, want 0", got)
	}
	if tr.Spans() != nil || tr.Len() != 0 {
		t.Fatal("nil tracer has spans")
	}
	tr.Reset()
	tr.SetClock(func() int64 { return 0 })
}

func TestTracerSpansAndParents(t *testing.T) {
	tr := NewTracer()
	tr.SetClock(fakeClock(1000))

	root := tr.Start("engine", "run", 0)
	child := tr.Start("engine", "stage 1", root, Int64("stage", 1))
	tr.Event("comm", "shuffle", child, Int64("bytes", 64))
	tr.End(child, Int64("ops", 3))
	tr.End(root)

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// Completion order: event, child, root.
	if spans[0].Name != "shuffle" || spans[0].Parent != child {
		t.Fatalf("event span = %+v, want shuffle under %d", spans[0], child)
	}
	if spans[0].Start != spans[0].End {
		t.Fatal("event span has nonzero duration")
	}
	if spans[1].ID != child || spans[1].Parent != root {
		t.Fatalf("child span = %+v", spans[1])
	}
	if a, ok := spans[1].Attr("ops"); !ok || a.Int != 3 {
		t.Fatalf("end-time attr not recorded: %+v", spans[1].Attrs)
	}
	if a, ok := spans[1].Attr("stage"); !ok || a.Int != 1 {
		t.Fatalf("start-time attr not recorded: %+v", spans[1].Attrs)
	}
	if spans[1].End <= spans[1].Start {
		t.Fatalf("child span not an interval: [%d, %d]", spans[1].Start, spans[1].End)
	}
	if spans[2].ID != root || spans[2].Parent != 0 {
		t.Fatalf("root span = %+v", spans[2])
	}
}

// TestTracerParent: a span's parent is the one its context carries, the
// innermost when several are stacked, whatever other values wrap it; a
// context that carries none parents a root. Naming one costs one allocation,
// and reading it none.
func TestTracerParent(t *testing.T) {
	tr := NewTracer()
	bg := context.Background()
	if got := tr.Parent(bg); got != 0 {
		t.Fatalf("Parent(Background) = %d, want 0", got)
	}
	ctx := ContextWithSpan(bg, 5)
	if got := tr.Parent(ctx); got != 5 {
		t.Fatalf("Parent = %d, want 5", got)
	}
	type key struct{}
	inner := context.WithValue(ContextWithSpan(ctx, 9), key{}, "v")
	if got := tr.Parent(inner); got != 9 {
		t.Fatalf("Parent under a value = %d, want 9", got)
	}
	if inner.Value(key{}) != "v" {
		t.Fatal("a span context hides the values under it")
	}
	// IDs past 255 are where boxing a SpanID into an interface allocates.
	const id = SpanID(1 << 20)
	var sink context.Context
	if n := testing.AllocsPerRun(100, func() { sink = ContextWithSpan(bg, id) }); n != 1 {
		t.Errorf("ContextWithSpan allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if tr.Parent(sink) != id {
			t.Fatal("Parent lost the span")
		}
	}); n != 0 {
		t.Errorf("Parent allocates %v times, want 0", n)
	}
}

func TestTracerEndUnknownID(t *testing.T) {
	tr := NewTracer()
	tr.End(0)
	tr.End(42)
	id := tr.Start("op", "x", 0)
	tr.End(id)
	tr.End(id) // double close is ignored
	if tr.Len() != 1 {
		t.Fatalf("got %d spans, want 1", tr.Len())
	}
}

func TestTracerReset(t *testing.T) {
	tr := NewTracer()
	open := tr.Start("op", "left-open", 0)
	tr.Event("comm", "x", 0)
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatal("Reset left spans behind")
	}
	tr.End(open) // span was dropped by Reset; must not resurface
	if tr.Len() != 0 {
		t.Fatal("End after Reset resurrected a span")
	}
}

func TestTracerConcurrentUse(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("engine", "run", 0)
	const goroutines = 8
	const perG = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := tr.Start("sched", "batch", root, Int64("i", int64(i)))
				tr.Event("comm", "shuffle", id, Int64("bytes", 8))
				tr.End(id)
			}
		}()
	}
	wg.Wait()
	tr.End(root)
	want := goroutines*perG*2 + 1
	if tr.Len() != want {
		t.Fatalf("got %d spans, want %d", tr.Len(), want)
	}
	for _, s := range tr.Spans() {
		if s.Cat == "sched" && s.Parent != root {
			t.Fatalf("batch span parented to %d, want %d", s.Parent, root)
		}
	}
}
