package dist

import (
	"context"
	"testing"

	"dmac/internal/obs"
)

// TestCommEventAllocatesNothing: with a registry attached (and no tracer), a
// comm event and its wire charge allocate nothing once the kind's
// instruments are held, and kinds that never happened export nothing.
func TestCommEventAllocatesNothing(t *testing.T) {
	c := NewCluster(Config{Workers: 2, LocalParallelism: 1})
	reg := obs.NewRegistry()
	c.SetObserver(nil, reg)
	ctx := context.Background()
	event := func() {
		c.traceComm(ctx, 1, commBroadcast, 4096)
		c.chargeWire(ctx, 1, commBroadcast, Wire{Bytes: 4200, Frames: 2}, 1e-4)
	}
	event()
	if a := testing.AllocsPerRun(50, event); a != 0 {
		t.Errorf("comm event: %v allocations, want 0", a)
	}
	snap := reg.Snapshot()
	const n = 1 + 1 + 50 // the call above, AllocsPerRun's warm-up, its runs
	if got := snap.Counters["comm.broadcast.events"]; got != n {
		t.Errorf("comm.broadcast.events = %d, want %d", got, n)
	}
	if got := snap.Counters["comm.broadcast.bytes"]; got != n*4096 {
		t.Errorf("comm.broadcast.bytes = %d, want %d", got, n*4096)
	}
	if got := snap.Histograms["comm.broadcast.bytes.hist"].Count; got != n {
		t.Errorf("comm.broadcast.bytes.hist count = %d, want %d", got, n)
	}
	wire := snap.CounterVecs["net.wire.bytes"]
	if len(wire) != 1 || wire[0].Labels["op"] != "broadcast" || wire[0].Value != n*4200 {
		t.Errorf("net.wire.bytes = %+v, want one child, op broadcast, %d", wire, n*4200)
	}
	for k := commKind(0); k < numCommKinds; k++ {
		if _, ok := snap.Counters["comm."+k.String()+".events"]; ok != (k == commBroadcast) {
			t.Errorf("comm.%s.events exported = %v", k, ok)
		}
	}
	if got := c.Net().Snapshot().WireBytes; got != n*4200 {
		t.Errorf("NetStats wire bytes = %d, want %d", got, n*4200)
	}
}
