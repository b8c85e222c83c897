package engine

import (
	"math"
	"testing"

	"dmac/internal/dist"
	"dmac/internal/workload"
)

// TestEngineChargesPinnedUnderTransport pins a full engine run (PageRank on
// the DMac planner) to the exact NetStats totals the engine produced before
// the Transport interface existed. The in-process transport must be
// charge-invisible: same bytes, same events, same FLOPs, zero measured wire
// traffic, same numeric result, with each broadcast priced by the owner
// rule: each of the three iterations broadcasts rank (1 x 48, 384 B, six
// block-columns on workers 0, 1, 2, 3, 0, 1) to all four workers, and each
// block skips its owner, 3 x 384 B.
func TestEngineChargesPinnedUnderTransport(t *testing.T) {
	reg := workload.DefaultRegistry()
	built, err := reg.Build("pagerank", 8, workload.Params{"nodes": 48, "iters": 3})
	if err != nil {
		t.Fatal(err)
	}
	e := New(DMac, dist.Config{Workers: 4, LocalParallelism: 2}, 8)
	for name, g := range built.Inputs {
		if err := e.Bind(name, g); err != nil {
			t.Fatal(err)
		}
	}
	var total Metrics
	for i := 0; i < built.Iterations; i++ {
		m, err := e.Run(built.Program, built.Params)
		if err != nil {
			t.Fatal(err)
		}
		total.Add(m)
	}
	if total.CommBytes != 8064 {
		t.Errorf("CommBytes = %d, want 8064", total.CommBytes)
	}
	if total.CommEvents != 8 || total.Broadcasts != 3 || total.Shuffles != 5 {
		t.Errorf("events = %d (b=%d, s=%d), want 8 (3, 5)", total.CommEvents, total.Broadcasts, total.Shuffles)
	}
	if total.FLOPs != 1320 {
		t.Errorf("FLOPs = %v, want 1320", total.FLOPs)
	}
	if total.WireBytes != 0 || total.WireFrames != 0 {
		t.Errorf("wire = %d bytes / %d frames under in-process transport, want 0 / 0",
			total.WireBytes, total.WireFrames)
	}
	g, ok := e.Grid("rank")
	if !ok {
		t.Fatal("no rank output")
	}
	sum := 0.0
	for j := 0; j < g.Cols(); j++ {
		sum += g.At(0, j)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("rank mass = %v, want 1", sum)
	}
}
