package dist

import (
	"context"
	"errors"
	"testing"

	"dmac/internal/dep"
	"dmac/internal/matrix"
)

func chaosCluster(faults FaultPlan) *Cluster {
	return NewCluster(Config{Workers: 4, LocalParallelism: 2, Faults: faults})
}

func TestRandomFaultPlanDeterministic(t *testing.T) {
	p := RandomFaultPlan(42, 0.3)
	first := p.eventsAt(3, 0, 8)
	for i := 0; i < 5; i++ {
		again := p.eventsAt(3, 0, 8)
		if len(again) != len(first) {
			t.Fatalf("event count changed across calls: %d vs %d", len(again), len(first))
		}
		for j := range again {
			if again[j] != first[j] {
				t.Fatalf("event %d changed across calls: %+v vs %+v", j, again[j], first[j])
			}
		}
	}
	other := RandomFaultPlan(43, 0.3).eventsAt(3, 0, 8)
	same := len(other) == len(first)
	if same {
		for j := range other {
			if other[j] != first[j] {
				same = false
				break
			}
		}
	}
	// Different seeds agreeing on every stage-3 victim would make the seed
	// meaningless; eventsAt over 8 workers at 30% should differ.
	if same && len(first) > 0 {
		t.Error("seeds 42 and 43 produced identical kill sets")
	}
}

func TestKillWorkerRefusesLastSurvivor(t *testing.T) {
	c := chaosCluster(FaultPlan{})
	for _, w := range []int{0, 1, 2} {
		if !c.KillWorker(w) {
			t.Fatalf("KillWorker(%d) refused with survivors left", w)
		}
	}
	if c.KillWorker(3) {
		t.Error("KillWorker killed the last survivor")
	}
	if c.KillWorker(1) {
		t.Error("KillWorker killed an already-dead worker")
	}
	if c.KillWorker(-1) || c.KillWorker(4) {
		t.Error("KillWorker accepted an out-of-range worker")
	}
	if got := c.AliveWorkers(); got != 1 {
		t.Errorf("AliveWorkers = %d, want 1", got)
	}
	if got := c.DeadWorkers(); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("DeadWorkers = %v, want [0 1 2]", got)
	}
}

func TestOwnerRemapsDeadWorkers(t *testing.T) {
	c := chaosCluster(FaultPlan{})
	g := matrix.NewGrid(8, 8, 2) // 4x4 blocks
	m := NewDistMatrix(g, dep.Row)
	if got := c.Owner(m, 1, 0); got != 1 {
		t.Fatalf("Owner(row 1) = %d before kill, want 1", got)
	}
	c.KillWorker(1)
	got := c.Owner(m, 1, 0)
	if got == 1 {
		t.Error("Owner still places blocks on the dead worker")
	}
	if got < 0 || got >= 4 {
		t.Errorf("Owner = %d out of range", got)
	}
	// Deterministic: repeated calls agree.
	for i := 0; i < 3; i++ {
		if again := c.Owner(m, 1, 0); again != got {
			t.Fatalf("Owner changed across calls: %d vs %d", again, got)
		}
	}
}

func TestWorkerBytes(t *testing.T) {
	c := chaosCluster(FaultPlan{})
	g := matrix.NewGrid(8, 8, 2)
	for bi := 0; bi < 4; bi++ {
		for bj := 0; bj < 4; bj++ {
			g.SetBlock(bi, bj, matrix.NewDense(2, 2))
		}
	}
	row := NewDistMatrix(g, dep.Row)
	var total int64
	for w := 0; w < 4; w++ {
		total += c.WorkerBytes(row, w)
	}
	if total != g.MemBytes() {
		t.Errorf("row WorkerBytes sum %d != grid bytes %d", total, g.MemBytes())
	}
	if per := c.WorkerBytes(row, 2); per != g.MemBytes()/4 {
		t.Errorf("row WorkerBytes(2) = %d, want %d", per, g.MemBytes()/4)
	}
	bc := NewDistMatrix(g, dep.Broadcast)
	if got := c.WorkerBytes(bc, 0); got != 0 {
		t.Errorf("broadcast WorkerBytes = %d, want 0 (replicas survive)", got)
	}
}

func TestNetStatsRecoveryAccounting(t *testing.T) {
	c := NewCluster(Config{Workers: 2, LocalParallelism: 1})
	c.ChargeRecovery(context.Background(), 1, 0, 100)
	c.Net().Add(Snapshot{Retries: 1, StallSec: 0.5})
	n := c.Net()
	s := n.Snapshot()
	if s.CommBytes != 100 || s.RecoveryBytes != 100 {
		t.Errorf("bytes=%d recovery=%d, want 100/100", s.CommBytes, s.RecoveryBytes)
	}
	if s.CommEvents != 1 {
		t.Errorf("commEvents = %d, want 1 (recovery is one shuffle)", s.CommEvents)
	}
	if s.Retries != 1 || s.StallSec != 0.5 {
		t.Errorf("retries=%d stall=%v, want 1/0.5", s.Retries, s.StallSec)
	}
	n.Reset()
	s = n.Snapshot()
	if s.RecoveryBytes != 0 || s.Retries != 0 || s.StallSec != 0 {
		t.Errorf("Reset left recovery state: %+v", s)
	}
}

func TestBeginStageBoundaryKill(t *testing.T) {
	c := chaosCluster(FaultPlan{Events: []FaultEvent{
		{Stage: 1, Worker: 2, Attempt: 0, Kind: FaultKillBoundary},
	}})
	err := c.BeginStage(context.Background(), 1, 0)
	var wf *WorkerFailure
	if !errors.As(err, &wf) {
		t.Fatalf("BeginStage = %v, want *WorkerFailure", err)
	}
	if wf.Worker != 2 || wf.Stage != 1 || wf.Attempt != 0 || wf.Kind != FaultKillBoundary {
		t.Errorf("failure = %+v", wf)
	}
	// The engine kills the worker on recovery; the event then stops firing.
	c.KillWorker(2)
	if err := c.BeginStage(context.Background(), 1, 0); err != nil {
		t.Errorf("BeginStage after kill = %v, want nil (dead workers skipped)", err)
	}
}

func TestBeginStageTaskKillArmsPending(t *testing.T) {
	c := chaosCluster(FaultPlan{Events: []FaultEvent{
		{Stage: 2, Worker: 1, Attempt: 0, Kind: FaultKillTask},
	}})
	if err := c.BeginStage(context.Background(), 2, 0); err != nil {
		t.Fatalf("BeginStage = %v, want nil (task kills surface later)", err)
	}
	f := c.TakeFault()
	if f == nil || f.Worker != 1 || f.Kind != FaultKillTask {
		t.Fatalf("TakeFault = %+v, want worker-1 task kill", f)
	}
	if again := c.TakeFault(); again != nil {
		t.Errorf("TakeFault fired twice: %+v", again)
	}
	// Retries of the same stage do not re-fire an attempt-0 scripted event.
	if err := c.BeginStage(context.Background(), 2, 1); err != nil {
		t.Fatalf("BeginStage(attempt 1) = %v", err)
	}
	if f := c.TakeFault(); f != nil {
		t.Errorf("attempt-0 event re-fired on attempt 1: %+v", f)
	}
}

func TestBeginStageDelayChargesStall(t *testing.T) {
	c := chaosCluster(FaultPlan{Events: []FaultEvent{
		{Stage: 1, Worker: 0, Attempt: 0, Kind: FaultDelay, DelaySec: 0.25},
	}})
	before := c.Net().Snapshot().StallSec
	if err := c.BeginStage(context.Background(), 1, 0); err != nil {
		t.Fatalf("BeginStage = %v", err)
	}
	if got := c.Net().Snapshot().StallSec - before; got != 0.25 {
		t.Errorf("stall delta = %v, want 0.25", got)
	}
	if f := c.TakeFault(); f != nil {
		t.Errorf("delay armed a kill: %+v", f)
	}
}

func TestBeginStageSparesLastSurvivor(t *testing.T) {
	c := chaosCluster(FaultPlan{Events: []FaultEvent{
		{Stage: 1, Worker: 3, Attempt: 0, Kind: FaultKillBoundary},
	}})
	for _, w := range []int{0, 1, 2} {
		c.KillWorker(w)
	}
	if err := c.BeginStage(context.Background(), 1, 0); err != nil {
		t.Errorf("BeginStage = %v, want nil (last survivor spared)", err)
	}
}
