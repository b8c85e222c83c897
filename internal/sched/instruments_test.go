package sched

import (
	"testing"

	"dmac/internal/obs"
)

// TestExecutorMetricsAllocateNothing: with a registry attached, what a grid
// multiply, a traced batch and a flush record allocates nothing once the
// executor holds their instruments.
func TestExecutorMetricsAllocateNothing(t *testing.T) {
	e := NewExecutor(2, nil)
	reg := obs.NewRegistry()
	e.SetObserver(nil, reg)
	m := e.metrics.Load()
	observe := func() {
		m.observeMul(2e6, 1e-3)
		m.observeBatch(8, 1e-3)
		e.noteFlushed(1)
	}
	observe()
	if a := testing.AllocsPerRun(50, observe); a != 0 {
		t.Errorf("executor metrics: %v allocations, want 0", a)
	}
	snap := reg.Snapshot()
	const n = 1 + 1 + 50 // the call above, AllocsPerRun's warm-up, its runs
	for name, want := range map[string]int64{
		"kernel.mul.count":        n,
		"kernel.mul.flops":        n * 2e6,
		"exec.subnormals.flushed": n,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for _, name := range []string{"kernel.mul.gflops", "sched.batch.tasks", "sched.batch.compute.seconds"} {
		if got := snap.Histograms[name].Count; got != n {
			t.Errorf("%s count = %d, want %d", name, got, n)
		}
	}
	if _, ok := snap.Counters["exec.transpose.count"]; ok {
		t.Error("exec.transpose.count exported though nothing was transposed")
	}
}
