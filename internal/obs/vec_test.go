package obs

import (
	"sync"
	"testing"
)

func TestCounterVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("jobs.done", "tenant", "state")
	v.With("alice", "done").Add(3)
	v.With("alice", "done").Inc()
	v.With("bob", "failed").Inc()
	if got := v.With("alice", "done").Value(); got != 4 {
		t.Fatalf("alice/done = %d, want 4", got)
	}
	if got := v.With("bob", "failed").Value(); got != 1 {
		t.Fatalf("bob/failed = %d, want 1", got)
	}
	// Same family on re-lookup.
	if r.CounterVec("jobs.done", "tenant", "state").With("alice", "done").Value() != 4 {
		t.Fatal("re-looked-up family lost its children")
	}
}

func TestVecNilAndMismatchedAreNoOps(t *testing.T) {
	var nilV *CounterVec
	nilV.With("a").Inc() // must not panic

	var nilR *Registry
	nilR.CounterVec("x", "l").With("v").Inc()
	nilR.GaugeVec("x", "l").With("v").Set(1)
	nilR.HistogramVec("x", SecondsBuckets, "l").With("v").Observe(1)

	r := NewRegistry()
	v := r.CounterVec("c", "tenant")
	v.With("a", "extra").Inc() // wrong arity: no-op child
	if len(v.Snapshot()) != 0 {
		t.Fatal("mismatched label count created a child")
	}
}

// TestLabelKeyUnambiguous pins that label values containing would-be
// separators cannot alias distinct children.
func TestLabelKeyUnambiguous(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("c", "a", "b")
	v.With("x:", "y").Inc()
	v.With("x", ":y").Inc()
	if n := len(v.Snapshot()); n != 2 {
		t.Fatalf("aliased children: got %d, want 2", n)
	}
}

// TestWithExistingChildAllocatesNothing: resolving a child that exists, of
// a one- and a three-label family, allocates nothing; a key past the stack
// buffer still finds the same child.
func TestWithExistingChildAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	one := r.CounterVec("one", "tenant")
	three := r.HistogramVec("three", SecondsBuckets, "tenant", "workload", "state")
	first, second := one.With("alice"), three.With("alice", "gram", "done")
	if a := testing.AllocsPerRun(100, func() {
		if one.With("alice") != first || three.With("alice", "gram", "done") != second {
			t.Fatal("With resolved another child")
		}
	}); a != 0 {
		t.Errorf("With on existing children allocates %.0f times, want 0", a)
	}
	long := string(make([]byte, 300))
	if one.With(long) != one.With(long) || one.With(long) == first {
		t.Error("a long label value does not resolve to one child of its own")
	}
}

func TestHistogramVecSharesBounds(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("lat", []float64{1, 2, 4}, "tenant")
	v.With("a").Observe(1.5)
	v.With("b").Observe(3)
	snap := v.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("children = %d, want 2", len(snap))
	}
	for _, ch := range snap {
		if len(ch.Hist.Bounds) != 3 || ch.Hist.Bounds[2] != 4 {
			t.Fatalf("child bounds = %v", ch.Hist.Bounds)
		}
	}
}

func TestVecConcurrent(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("c", "k")
	hv := r.HistogramVec("h", SecondsBuckets, "k")
	gv := r.GaugeVec("g", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			keys := []string{"a", "b", "c"}
			for n := 0; n < 500; n++ {
				k := keys[n%len(keys)]
				cv.With(k).Inc()
				hv.With(k).Observe(float64(n) / 100)
				gv.With(k).Set(float64(n))
			}
		}(i)
	}
	wg.Wait()
	var total int64
	for _, ch := range cv.Snapshot() {
		total += ch.Value
	}
	if total != 8*500 {
		t.Fatalf("counter total = %d, want %d", total, 8*500)
	}
}

func TestSnapshotIncludesVecs(t *testing.T) {
	r := NewRegistry()
	r.Counter("plain").Inc()
	r.CounterVec("fam", "tenant").With("a").Add(2)
	r.GaugeVec("gfam", "tenant").With("a").Set(7)
	r.HistogramVec("hfam", []float64{1, 10}, "tenant").With("a").Observe(5)
	snap := r.Snapshot()
	if snap.Counters["plain"] != 1 {
		t.Fatal("plain counter missing")
	}
	cs, ok := snap.CounterVecs["fam"]
	if !ok || len(cs) != 1 || cs[0].Value != 2 || cs[0].Labels["tenant"] != "a" {
		t.Fatalf("counter vec snapshot = %+v", cs)
	}
	gs := snap.GaugeVecs["gfam"]
	if len(gs) != 1 || gs[0].Value != 7 {
		t.Fatalf("gauge vec snapshot = %+v", gs)
	}
	hs := snap.HistogramVecs["hfam"]
	if len(hs) != 1 || hs[0].Hist.Count != 1 || hs[0].Hist.Sum != 5 {
		t.Fatalf("histogram vec snapshot = %+v", hs)
	}
}

// BenchmarkCounterVecWith measures the resolve-then-add hot path against the
// plain counter baseline (the labeled path adds one map lookup under RLock).
func BenchmarkCounterVecWith(b *testing.B) {
	r := NewRegistry()
	v := r.CounterVec("c", "tenant")
	b.Run("with", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v.With("tenant-1").Inc()
		}
	})
	c := r.Counter("plain")
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
}
