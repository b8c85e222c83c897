package engine

import (
	"testing"

	"dmac/internal/core"
	"dmac/internal/obs"
)

// TestOperatorMetricsAllocateNothing: with a registry attached, recording an
// operator's op.<kind>.seconds and op.<kind>.count, and a stage's
// engine.stage.seconds, allocates nothing once their instruments are held,
// and an operator kind or stage that never ran exports nothing.
func TestOperatorMetricsAllocateNothing(t *testing.T) {
	e := New(DMac, testConfig(), tBS)
	reg := obs.NewRegistry()
	e.SetObserver(nil, reg)
	observe := func() {
		e.inst.observeOp(core.OpCompute, 1e-3)
		e.inst.observeStage(2, 1e-3)
	}
	observe()
	if a := testing.AllocsPerRun(50, observe); a != 0 {
		t.Errorf("operator and stage metrics: %v allocations, want 0", a)
	}
	snap := reg.Snapshot()
	const n = 1 + 1 + 50 // the call above, AllocsPerRun's warm-up, its runs
	if got := snap.Counters["op.compute.count"]; got != n {
		t.Errorf("op.compute.count = %d, want %d", got, n)
	}
	if got := snap.Histograms["op.compute.seconds"].Count; got != n {
		t.Errorf("op.compute.seconds count = %d, want %d", got, n)
	}
	if _, ok := snap.Counters["op.broadcast.count"]; ok {
		t.Error("op.broadcast.count exported though no broadcast ran")
	}
	stages := snap.HistogramVecs["engine.stage.seconds"]
	if len(stages) != 1 || stages[0].Labels["stage"] != "2" || stages[0].Hist.Count != n {
		t.Errorf("engine.stage.seconds = %+v, want one child, stage 2, count %d", stages, n)
	}

	var off *engineMetrics
	off.observeOp(core.OpCompute, 1) // no registry: a no-op
	off.observeStage(1, 1)
}
