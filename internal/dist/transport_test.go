package dist

import (
	"context"
	"errors"
	"testing"

	"dmac/internal/dep"
	"dmac/internal/matrix"
)

// transportGoldenStats runs a fixed collective sequence over three stages —
// partition and broadcast, shuffle-transpose, CPMM multiply and sum — and
// returns the cluster's accumulated statistics after each stage (the last
// entry is the run's total). The pinned test below asserts the exact numbers
// this produced before the Transport interface existed, so the in-process
// transport is provably charge-identical to the direct-copy code it replaced.
func transportGoldenStats(t *testing.T, c *Cluster) []Snapshot {
	t.Helper()
	var after []Snapshot
	ctx := context.Background()
	g := matrix.NewDenseGrid(12, 10, 4)
	for i := 0; i < 12; i++ {
		for j := 0; j < 10; j++ {
			g.Set(i, j, float64(i*10+j)+0.5)
		}
	}
	m := NewDistMatrix(g, dep.SchemeNone)
	rowed, err := c.Partition(ctx, m, dep.Row, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Broadcast(ctx, m, 1, nil); err != nil {
		t.Fatal(err)
	}
	after = append(after, c.Net().Snapshot())
	if _, err := c.ShuffleTranspose(ctx, rowed, 2); err != nil {
		t.Fatal(err)
	}
	after = append(after, c.Net().Snapshot())
	ga := matrix.NewDenseGrid(8, 8, 4)
	gb := matrix.NewDenseGrid(8, 8, 4)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			ga.Set(i, j, float64(i+j)+1)
			gb.Set(i, j, float64(i*j)+2)
		}
	}
	out, err := c.Multiply(ctx, NewDistMatrix(ga, dep.Col), NewDistMatrix(gb, dep.Row), CPMM, dep.Row, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sum(ctx, out, 3); err != nil {
		t.Fatal(err)
	}
	return append(after, c.Net().Snapshot())
}

// TestInprocTransportChargesPinned pins the in-process transport to the
// exact NetStats charges the pre-transport direct-copy code produced for the
// same collective sequence. Any change to these numbers is a change to the
// cost model, not a refactor.
func TestInprocTransportChargesPinned(t *testing.T) {
	c := NewCluster(Config{Workers: 4, LocalParallelism: 2})
	stages := transportGoldenStats(t, c)
	s := stages[len(stages)-1]
	if s.CommBytes != 7840 {
		t.Errorf("CommBytes = %d, want 7840", s.CommBytes)
	}
	if s.CommEvents != 5 || s.Broadcasts != 1 || s.Shuffles != 4 {
		t.Errorf("events = %d (b=%d, s=%d), want 5 (1, 4)", s.CommEvents, s.Broadcasts, s.Shuffles)
	}
	if s.FLOPs != 1208 {
		t.Errorf("FLOPs = %v, want 1208", s.FLOPs)
	}
	wantBytes, wantEvents := []int64{4800, 960, 2080}, []int{2, 1, 2}
	var prev Snapshot
	for i, cur := range stages {
		if got := cur.CommBytes - prev.CommBytes; got != wantBytes[i] {
			t.Errorf("stage %d bytes = %d, want %d", i+1, got, wantBytes[i])
		}
		if got := cur.CommEvents - prev.CommEvents; got != wantEvents[i] {
			t.Errorf("stage %d events = %d, want %d", i+1, got, wantEvents[i])
		}
		prev = cur
	}
	// The in-process transport moves nothing: measured wire traffic is zero,
	// and that zero is what keeps the model untouched by the transport layer.
	if s.WireBytes != 0 || s.WireFrames != 0 {
		t.Errorf("wire = %d bytes / %d frames, want 0 / 0", s.WireBytes, s.WireFrames)
	}
	if c.TransportName() != "inproc" {
		t.Errorf("TransportName = %q, want inproc", c.TransportName())
	}
}

// TestCollectivesHonorCanceledContext is the regression test for context
// propagation through the cluster's communication loops: a canceled context
// must abort every collective with the context's error and charge nothing to
// the model.
func TestCollectivesHonorCanceledContext(t *testing.T) {
	c := NewCluster(Config{Workers: 4, LocalParallelism: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := matrix.NewDenseGrid(8, 8, 4)
	for i := 0; i < 8; i++ {
		g.Set(i, i, 1)
	}
	m := NewDistMatrix(g, dep.SchemeNone)

	if _, err := c.Partition(ctx, m, dep.Row, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("Partition under canceled ctx = %v, want context.Canceled", err)
	}
	if _, err := c.Broadcast(ctx, m, 1, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("Broadcast under canceled ctx = %v, want context.Canceled", err)
	}
	rowed := NewDistMatrix(g, dep.Row)
	if _, err := c.ShuffleTranspose(ctx, rowed, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("ShuffleTranspose under canceled ctx = %v, want context.Canceled", err)
	}
	if _, err := c.Sum(ctx, rowed, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("Sum under canceled ctx = %v, want context.Canceled", err)
	}
	a := NewDistMatrix(g, dep.Col)
	b := NewDistMatrix(g, dep.Row)
	if _, err := c.Multiply(ctx, a, b, CPMM, dep.Row, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("CPMM Multiply under canceled ctx = %v, want context.Canceled", err)
	}

	s := c.Net().Snapshot()
	if s.CommBytes != 0 || s.CommEvents != 0 {
		t.Errorf("canceled collectives charged %d bytes / %d events, want none", s.CommBytes, s.CommEvents)
	}
}

// TestNetFaultPlanValidate covers the validation of the network-fault fields:
// malformed rates, stages and partitions must be rejected with descriptive
// errors, and ValidateFor must additionally reject partitions naming workers
// the cluster does not have.
func TestNetFaultPlanValidate(t *testing.T) {
	valid := []FaultPlan{
		{},
		{NetDropRate: 0.5},
		{NetPartition: []int{1}, NetPartitionStage: 2},
		{Events: []FaultEvent{{Stage: 1, Worker: 0, Kind: FaultNetDrop}}},
		{Events: []FaultEvent{{Stage: 1, Worker: 0, Kind: FaultNetDelay, DelaySec: 0.1}}},
		{Events: []FaultEvent{{Stage: 1, Worker: 0, Kind: FaultNetPartition}}},
	}
	for i, p := range valid {
		if err := p.Validate(); err != nil {
			t.Errorf("valid plan %d rejected: %v", i, err)
		}
	}
	invalid := []FaultPlan{
		{NetDropRate: -0.1},
		{NetDropRate: 1.5},
		{NetPartitionStage: -1},
		{NetPartition: []int{-3}},
		{Events: []FaultEvent{{Stage: 1, Worker: 0, Kind: FaultKind(99)}}},
	}
	for i, p := range invalid {
		if err := p.Validate(); err == nil {
			t.Errorf("invalid plan %d accepted", i)
		}
	}
	// Partition of a worker the cluster does not have: caught by ValidateFor.
	p := FaultPlan{NetPartition: []int{7}}
	if err := p.Validate(); err != nil {
		t.Errorf("size-dependent check leaked into Validate: %v", err)
	}
	if err := p.ValidateFor(4); err == nil {
		t.Error("ValidateFor(4) accepted partition of worker 7")
	}
	// And a cluster constructed with such a plan fails its first BeginStage.
	c := NewCluster(Config{Workers: 4, Faults: p})
	if err := c.BeginStage(context.Background(), 1, 0); err == nil {
		t.Error("BeginStage accepted invalid net-fault plan")
	}
}

// TestNetFaultPartition checks the injected partition path: the first
// collective that must reach the partitioned worker fails with a typed
// *WorkerFailure of kind FaultNetPartition, classifiable via ErrWorkerLost.
func TestNetFaultPartition(t *testing.T) {
	c := NewCluster(Config{
		Workers:          4,
		LocalParallelism: 2,
		Faults:           FaultPlan{NetPartition: []int{2}},
	})
	if err := c.BeginStage(context.Background(), 1, 0); err != nil {
		t.Fatal(err)
	}
	g := matrix.NewDenseGrid(12, 12, 4)
	for i := 0; i < 12; i++ {
		g.Set(i, i, 1)
	}
	m := NewDistMatrix(g, dep.SchemeNone)
	_, err := c.Partition(context.Background(), m, dep.Row, 1)
	var wf *WorkerFailure
	if !errors.As(err, &wf) {
		t.Fatalf("partitioned Partition = %v, want *WorkerFailure", err)
	}
	if wf.Worker != 2 || wf.Kind != FaultNetPartition {
		t.Errorf("failure = worker %d kind %s, want worker 2 net-partition", wf.Worker, wf.Kind)
	}
	if !errors.Is(err, ErrWorkerLost) {
		t.Error("partition failure does not match ErrWorkerLost")
	}
	// Once the engine-style recovery removes the worker, the retry goes
	// through: the partitioned worker is no longer a destination.
	if !c.KillWorker(2) {
		t.Fatal("KillWorker(2) refused")
	}
	if err := c.BeginStage(context.Background(), 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Partition(context.Background(), m, dep.Row, 1); err != nil {
		t.Fatalf("retry after recovery failed: %v", err)
	}
}

// TestNetFaultDropAndDelay checks the non-fatal injections: drops are healed
// by retransmit (counted, stalled, results unchanged) and scripted delays
// charge stall. Results must stay identical to a fault-free run.
func TestNetFaultDropAndDelay(t *testing.T) {
	faulty := NewCluster(Config{
		Workers:          4,
		LocalParallelism: 2,
		Faults: FaultPlan{
			NetDropRate: 1, // drop every (stage, worker) once on first attempts
			Events: []FaultEvent{
				{Stage: 1, Worker: 1, Kind: FaultNetDelay, DelaySec: 0.25},
			},
		},
	})
	clean := NewCluster(Config{Workers: 4, LocalParallelism: 2})
	for _, c := range []*Cluster{faulty, clean} {
		if err := c.BeginStage(context.Background(), 1, 0); err != nil {
			t.Fatal(err)
		}
	}

	transportGoldenStats(t, faulty)
	transportGoldenStats(t, clean)

	fs, cs := faulty.Net().Snapshot(), clean.Net().Snapshot()
	if fs.NetDropsInjected == 0 {
		t.Error("NetDropRate=1 injected no drops")
	}
	if fs.NetDelaysInjected != 1 {
		t.Errorf("NetDelaysInjected = %d, want 1", fs.NetDelaysInjected)
	}
	if fs.StallSec <= cs.StallSec {
		t.Errorf("faulty stall %v not above clean %v", fs.StallSec, cs.StallSec)
	}
	// Drops and delays never lose data: the model charges (bytes, events,
	// FLOPs) are identical to the clean run.
	if fs.CommBytes != cs.CommBytes || fs.CommEvents != cs.CommEvents || fs.FLOPs != cs.FLOPs {
		t.Errorf("faulty charges (%d, %d, %v) differ from clean (%d, %d, %v)",
			fs.CommBytes, fs.CommEvents, fs.FLOPs, cs.CommBytes, cs.CommEvents, cs.FLOPs)
	}
}

// TestKillFailureMatchesErrWorkerLost pins that the pre-existing kill path
// is classifiable through the same sentinel as the new network failures.
func TestKillFailureMatchesErrWorkerLost(t *testing.T) {
	var err error = &WorkerFailure{Worker: 1, Stage: 2, Kind: FaultKillBoundary}
	if !errors.Is(err, ErrWorkerLost) {
		t.Error("kill WorkerFailure does not match ErrWorkerLost")
	}
}
