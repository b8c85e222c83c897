package engine

import (
	"testing"

	"dmac/internal/dist"
	"dmac/internal/expr"
)

// checkLedgerPartition asserts that a run's stage records partition its
// totals exactly: every byte, event and FLOP the run charged is booked to
// one stage.
func checkLedgerPartition(t *testing.T, label string, m Metrics) {
	t.Helper()
	var bytes int64
	var events int
	var flops float64
	for _, r := range m.PerStage {
		bytes += r.CommBytes
		events += r.CommEvents
		flops += r.FLOPs
	}
	if bytes != m.CommBytes || events != m.CommEvents || flops != m.FLOPs {
		t.Errorf("%s: stage records sum to %d B, %d events, %v FLOPs; run totals are %d B, %d events, %v FLOPs",
			label, bytes, events, flops, m.CommBytes, m.CommEvents, m.FLOPs)
	}
}

// TestCheckpointLedgerReplayAttribution pins where a full-lineage replay and
// the recovery before it are booked. A kill at GNMF's last stage with no
// usable snapshot replays every earlier stage; each replayed stage's record
// then holds exactly twice its fault-free FLOPs and events — the replay books
// to the stages it re-runs — and between one and two times its fault-free
// bytes (the replay runs on the surviving workers, so its shuffles move no
// more than the first run's). The failed stage's record holds its fault-free
// FLOPs plus the recovery shuffle: the fault-free bytes plus RecoveryBytes,
// and one more event.
func TestCheckpointLedgerReplayAttribution(t *testing.T) {
	stages := ckptStages(t)
	last := stages[len(stages)-1]
	clean, _ := runGNMFCheckpointed(t, "", CheckpointPolicy{}, 0, nil)
	m, _ := runGNMFCheckpointed(t, t.TempDir(), CheckpointPolicy{Interval: 1000}, last, nil)
	if m.StagesReplayed != len(stages)-1 {
		t.Fatalf("StagesReplayed = %d, want %d (full lineage)", m.StagesReplayed, len(stages)-1)
	}
	if m.RecoveryBytes <= 0 {
		t.Fatalf("RecoveryBytes = %d; the kill must charge a recovery shuffle", m.RecoveryBytes)
	}
	if len(m.PerStage) != len(clean.PerStage) {
		t.Fatalf("%d stage records, fault-free run has %d", len(m.PerStage), len(clean.PerStage))
	}
	for i, r := range m.PerStage {
		c := clean.PerStage[i]
		if r.Stage == last {
			if r.FLOPs != c.FLOPs || r.CommBytes != c.CommBytes+m.RecoveryBytes || r.CommEvents != c.CommEvents+1 {
				t.Errorf("failed stage %d: %v FLOPs, %d B, %d events; want %v, %d + %d recovery, %d + 1",
					r.Stage, r.FLOPs, r.CommBytes, r.CommEvents, c.FLOPs, c.CommBytes, m.RecoveryBytes, c.CommEvents)
			}
			continue
		}
		if r.FLOPs != 2*c.FLOPs || r.CommEvents != 2*c.CommEvents || r.CommBytes < c.CommBytes || r.CommBytes > 2*c.CommBytes {
			t.Errorf("replayed stage %d: %v FLOPs, %d B, %d events; want %v, [%d, %d], %d",
				r.Stage, r.FLOPs, r.CommBytes, r.CommEvents, 2*c.FLOPs, c.CommBytes, 2*c.CommBytes, 2*c.CommEvents)
		}
	}
	checkLedgerPartition(t, "full lineage", m)
}

// TestRunEmptyProgram runs a program with no nodes: its plan has no stages,
// so the run charges nothing and books no stage record.
func TestRunEmptyProgram(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		e := New(DMac, testConfig(), tBS)
		if dir != "" {
			if err := e.SetCheckpoint(dir, CheckpointPolicy{Interval: 1}); err != nil {
				t.Fatal(err)
			}
		}
		m, err := e.Run(expr.NewProgram(), nil)
		if err != nil {
			t.Fatalf("checkpoint dir %q: %v", dir, err)
		}
		if m.Stages != 0 || len(m.PerStage) != 0 || m.CommBytes != 0 || m.FLOPs != 0 {
			t.Errorf("checkpoint dir %q: Stages = %d, %d stage records, %d B, %v FLOPs; want all zero",
				dir, m.Stages, len(m.PerStage), m.CommBytes, m.FLOPs)
		}
	}
}

// TestCheckpointLedgerPartitionUnderFaults checks that the stage records
// still partition the run's totals when runs fail, recover, restore and
// replay: on every rung of the recovery ladder and under a plan that kills a
// worker mid-stage while corrupting block hand-offs.
func TestCheckpointLedgerPartitionUnderFaults(t *testing.T) {
	stages := ckptStages(t)
	last := stages[len(stages)-1]
	for _, c := range []struct {
		name     string
		interval int
		tamper   func(*checkpointer)
	}{
		{"truncated block file", 1, truncateNewestBlockFile(t)},
		{"torn manifest", 1, tearNewestManifest(t)},
		{"directory deleted", 1, deleteCheckpointDir(t)},
		{"interval 2", 2, nil},
	} {
		m, _ := runGNMFCheckpointed(t, t.TempDir(), CheckpointPolicy{Interval: c.interval}, last, c.tamper)
		if m.Retries != 1 {
			t.Errorf("%s: Retries = %d, want 1", c.name, m.Retries)
		}
		checkLedgerPartition(t, c.name, m)
	}

	chaos := testConfig()
	chaos.Faults = dist.FaultPlan{Seed: 31, CorruptRate: 0.25, Events: []dist.FaultEvent{
		{Stage: last, Worker: 1, Attempt: 0, Kind: dist.FaultKillTask},
	}}
	m, _ := gnmfApp.runOn(t, chaos, t.TempDir(), CheckpointPolicy{Interval: 2}, 0, nil)
	if m.Retries == 0 || m.CorruptionsInjected == 0 {
		t.Errorf("kill+corrupt: Retries = %d, CorruptionsInjected = %d; the plan must fire both", m.Retries, m.CorruptionsInjected)
	}
	checkLedgerPartition(t, "kill+corrupt", m)
}
