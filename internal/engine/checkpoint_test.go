package engine

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dmac/internal/dist"
	"dmac/internal/matrix"
)

// ckptStages lists the distinct plan stages a GNMF iteration executes on a
// fresh DMac engine, in ascending order — the stage sequence the checkpoint
// policy and the replay assertions are pinned against.
func ckptStages(t *testing.T) []int {
	t.Helper()
	e := New(DMac, testConfig(), tBS)
	bindGNMF(t, e)
	plan, err := e.Plan(gnmfProgram(0.3))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	var stages []int
	for _, op := range plan.Ops {
		if !seen[op.Stage] {
			seen[op.Stage] = true
			stages = append(stages, op.Stage)
		}
	}
	for i := 1; i < len(stages); i++ {
		if stages[i] < stages[i-1] {
			t.Fatalf("plan op order is not stage-ascending: %v", stages)
		}
	}
	if len(stages) < 3 {
		t.Fatalf("GNMF plan has only %d stages; the checkpoint tests need more", len(stages))
	}
	return stages
}

// runGNMFCheckpointed runs one GNMF iteration with a scripted boundary kill
// at the plan's last stage, checkpointing under the given policy (dir == ""
// disables checkpointing entirely), and returns the run metrics.
func runGNMFCheckpointed(t *testing.T, dir string, policy CheckpointPolicy, faultStage int, tamper func(*checkpointer)) (Metrics, *Engine) {
	t.Helper()
	return gnmfApp.run(t, dir, policy, faultStage, tamper)
}

// wantGNMF returns the fault-free, checkpoint-free result the recovery tests
// compare against bit-for-bit.
func wantGNMF(t *testing.T) (w, h *matrix.Grid) {
	t.Helper()
	_, e := runGNMFCheckpointed(t, "", CheckpointPolicy{}, 0, nil)
	w, _ = e.Grid("W")
	h, _ = e.Grid("H")
	return w, h
}

func checkGNMFResult(t *testing.T, label string, e *Engine, wantW, wantH *matrix.Grid) {
	t.Helper()
	gotW, _ := e.Grid("W")
	gotH, _ := e.Grid("H")
	if matrix.BitDiff(gotW, wantW) != "" || matrix.BitDiff(gotH, wantH) != "" {
		t.Errorf("%s: recovered results are not bit-identical to the fault-free run", label)
	}
}

// truncateNewestBlockFile cuts the first block file of the run's newest
// checkpoint in half, as a crash mid-write leaves it.
func truncateNewestBlockFile(t *testing.T) func(*checkpointer) {
	return func(c *checkpointer) {
		if len(c.written) == 0 {
			t.Fatal("no checkpoints written before the fault")
		}
		newest := c.written[len(c.written)-1]
		ents, err := os.ReadDir(newest.dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range ents {
			if filepath.Ext(ent.Name()) != ".dmgr" {
				continue
			}
			path := filepath.Join(newest.dir, ent.Name())
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, blob[:len(blob)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		t.Fatal("newest checkpoint holds no block files")
	}
}

// tearNewestManifest leaves half a JSON document in the newest checkpoint's
// manifest, as a crash mid-write (pre-rename) does.
func tearNewestManifest(t *testing.T) func(*checkpointer) {
	return func(c *checkpointer) {
		newest := c.written[len(c.written)-1]
		path := filepath.Join(newest.dir, "manifest.json")
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob[:len(blob)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// deleteCheckpointDir deletes the whole checkpoint directory.
func deleteCheckpointDir(t *testing.T) func(*checkpointer) {
	return func(c *checkpointer) {
		if err := os.RemoveAll(c.dir); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointReplayCountsPinned is the metrics-pinned recovery test: with
// a checkpoint every 2 stages and a kill at the last stage, recovery replays
// exactly the stages between the newest checkpoint and the failure; with the
// interval too large to ever fire, recovery replays the full lineage (every
// stage before the failure). Both recoveries must be bit-identical to the
// fault-free run.
func TestCheckpointReplayCountsPinned(t *testing.T) {
	stages := ckptStages(t)
	n := len(stages)
	last := stages[n-1]
	wantW, wantH := wantGNMF(t)

	// Interval 2: checkpoints land after the stages at positions 2, 4, ...
	// (1-based) of the stage sequence; the newest one before the failing last
	// stage is at position p = largest multiple of 2 <= n-1, leaving
	// (n-1) - p stages to replay.
	p := (n - 1) / 2 * 2
	wantReplay := (n - 1) - p
	m, e := runGNMFCheckpointed(t, t.TempDir(), CheckpointPolicy{Interval: 2}, last, nil)
	if m.StagesReplayed != wantReplay {
		t.Errorf("interval 2: StagesReplayed = %d, want %d (stages %v, fault at %d)",
			m.StagesReplayed, wantReplay, stages, last)
	}
	if m.CheckpointBytes <= 0 || m.CheckpointSeconds <= 0 {
		t.Errorf("interval 2: CheckpointBytes=%d CheckpointSeconds=%v, want both positive",
			m.CheckpointBytes, m.CheckpointSeconds)
	}
	if m.Retries != 1 {
		t.Errorf("interval 2: Retries = %d, want 1", m.Retries)
	}
	checkGNMFResult(t, "interval 2", e, wantW, wantH)

	// Interval larger than the stage count: checkpointing is enabled but
	// never fires, so recovery degrades to full lineage replay.
	m, e = runGNMFCheckpointed(t, t.TempDir(), CheckpointPolicy{Interval: 1000}, last, nil)
	if m.StagesReplayed != n-1 {
		t.Errorf("no checkpoint: StagesReplayed = %d, want %d (full lineage)", m.StagesReplayed, n-1)
	}
	if m.CheckpointBytes != 0 {
		t.Errorf("no checkpoint: CheckpointBytes = %d, want 0", m.CheckpointBytes)
	}
	if wantReplay >= n-1 {
		t.Errorf("checkpointed replay (%d) should beat full lineage (%d); stage sequence %v too short",
			wantReplay, n-1, stages)
	}
	checkGNMFResult(t, "full lineage", e, wantW, wantH)

	// Without SetCheckpoint the run recovers purely via the existing lineage
	// accounting and reports no replay.
	m, e = runGNMFCheckpointed(t, "", CheckpointPolicy{}, last, nil)
	if m.StagesReplayed != 0 || m.CheckpointBytes != 0 {
		t.Errorf("disabled: StagesReplayed=%d CheckpointBytes=%d, want 0/0", m.StagesReplayed, m.CheckpointBytes)
	}
	checkGNMFResult(t, "disabled", e, wantW, wantH)
}

// TestCostModelCheckpointing exercises the cost-model trigger: on a cluster so
// slow that recomputing any stage dwarfs a snapshot write, every stage ends in
// a checkpoint; on one so fast that recomputation is modelled as nearly free,
// none does.
func TestCostModelCheckpointing(t *testing.T) {
	slow := testConfig()
	slow.FlopsPerSecPerThread = 1e-6
	m, _ := gnmfApp.runOn(t, slow, t.TempDir(), CheckpointPolicy{CostModel: true}, 0, nil)
	if m.CheckpointBytes <= 0 {
		t.Error("prohibitive recomputation: cost model never checkpointed")
	}
	fast := testConfig()
	fast.FlopsPerSecPerThread, fast.BandwidthBytesPerSec, fast.ShuffleLatencySec = 1e18, 1e18, 1e-18
	m, _ = gnmfApp.runOn(t, fast, t.TempDir(), CheckpointPolicy{CostModel: true}, 0, nil)
	if m.CheckpointBytes != 0 {
		t.Errorf("free recomputation: cost model checkpointed %d bytes, want 0", m.CheckpointBytes)
	}
}

// Crash-mid-checkpoint: a truncated block file in the newest checkpoint must
// fail verification, and the ladder must fall back to the next older
// checkpoint — with bit-identical results.
func TestRecoveryLadderTruncatedBlockFile(t *testing.T) {
	stages := ckptStages(t)
	n := len(stages)
	last := stages[n-1]
	wantW, wantH := wantGNMF(t)
	// Interval 1: a checkpoint after every stage, so every stage before the
	// failing one is a candidate. Untampered, the newest checkpoint sits at
	// the stage right before the failure and recovery replays nothing;
	// damaging the newest makes the ladder restore the one before it, leaving
	// exactly 1 stage to replay — the pinned count that proves the skip.
	m, e := runGNMFCheckpointed(t, t.TempDir(), CheckpointPolicy{Interval: 1}, last, truncateNewestBlockFile(t))
	if m.StagesReplayed != 1 {
		t.Errorf("StagesReplayed = %d, want 1 (newest checkpoint skipped)", m.StagesReplayed)
	}
	checkGNMFResult(t, "truncated block", e, wantW, wantH)
}

// Crash-mid-checkpoint: a torn manifest (the crash happened before the
// atomic rename completed) must invalidate the checkpoint the same way.
func TestRecoveryLadderTornManifest(t *testing.T) {
	stages := ckptStages(t)
	last := stages[len(stages)-1]
	wantW, wantH := wantGNMF(t)
	m, e := runGNMFCheckpointed(t, t.TempDir(), CheckpointPolicy{Interval: 1}, last, tearNewestManifest(t))
	if m.StagesReplayed != 1 {
		t.Errorf("StagesReplayed = %d, want 1 (torn manifest skipped)", m.StagesReplayed)
	}
	checkGNMFResult(t, "torn manifest", e, wantW, wantH)
}

// A NaN is a value, not corruption: a snapshot holding one must verify and be
// restored like any other. PageRank with a NaN in D carries it into the
// teleport term and the new rank; with a snapshot after every stage and a
// kill at the last stage, the newest snapshot is restored and nothing is
// replayed, and the result matches the fault-free run bit for bit.
func TestRecoveryLadderRestoresNaNSnapshot(t *testing.T) {
	const nanAt = 3
	nanApp := pageRankApp
	nanApp.bind = func(t testing.TB, e *Engine) {
		bindPageRank(t, e)
		d := mustGrid(t, e, "D").ToDense()
		d[nanAt] = math.NaN()
		if err := e.Bind("D", matrix.FromDense(1, tNodes, tBS, d)); err != nil {
			t.Fatal(err)
		}
	}
	stages := nanApp.stagesOf(t)
	_, want := nanApp.run(t, "", CheckpointPolicy{}, 0, nil)
	m, e := nanApp.run(t, t.TempDir(), CheckpointPolicy{Interval: 1}, stages[len(stages)-1], nil)
	if m.StagesReplayed != 0 || m.Retries != 1 {
		t.Errorf("StagesReplayed = %d, Retries = %d, want 0 and 1 (the newest snapshot restored)",
			m.StagesReplayed, m.Retries)
	}
	got := mustGrid(t, e, "rank")
	if !math.IsNaN(got.At(0, nanAt)) {
		t.Errorf("rank[%d] = %v, want the NaN D carries", nanAt, got.At(0, nanAt))
	}
	if d := matrix.BitDiff(got, mustGrid(t, want, "rank")); d != "" {
		t.Fatalf("rank differs from the fault-free run at %s", d)
	}
}

// The whole checkpoint directory disappearing (operator cleanup, disk
// replacement) must degrade recovery to full lineage replay, not fail it.
func TestRecoveryLadderDirectoryDeleted(t *testing.T) {
	stages := ckptStages(t)
	n := len(stages)
	last := stages[n-1]
	wantW, wantH := wantGNMF(t)
	m, e := runGNMFCheckpointed(t, t.TempDir(), CheckpointPolicy{Interval: 1}, last, deleteCheckpointDir(t))
	if m.StagesReplayed != n-1 {
		t.Errorf("StagesReplayed = %d, want %d (full lineage after dir loss)", m.StagesReplayed, n-1)
	}
	checkGNMFResult(t, "dir deleted", e, wantW, wantH)
}

// Deleting the checkpoint directory between runs must not confuse later
// runs: the next Run recreates its own checkpoints and recovers normally.
func TestCheckpointDirDeletedBetweenRuns(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = dist.FaultPlan{Events: []dist.FaultEvent{
		{Stage: 2, Worker: 1, Attempt: 0, Kind: dist.FaultKillBoundary},
	}}
	dir := filepath.Join(t.TempDir(), "ckpts")
	e := New(DMac, cfg, tBS)
	bindGNMF(t, e)
	if err := e.SetCheckpoint(dir, CheckpointPolicy{Interval: 1}); err != nil {
		t.Fatal(err)
	}
	prog := gnmfProgram(0.3)
	if _, err := e.Run(prog, nil); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(prog, nil); err != nil {
		t.Fatalf("run after checkpoint dir deletion: %v", err)
	}

	ref := New(DMac, dist.Config{Workers: 4, LocalParallelism: 2, Faults: cfg.Faults}, tBS)
	bindGNMF(t, ref)
	for i := 0; i < 2; i++ {
		if _, err := ref.Run(prog, nil); err != nil {
			t.Fatal(err)
		}
	}
	checkGNMFResult(t, "dir deleted between runs", e, mustGrid(t, ref, "W"), mustGrid(t, ref, "H"))
}

func mustGrid(t testing.TB, e *Engine, name string) *matrix.Grid {
	t.Helper()
	g, ok := e.Grid(name)
	if !ok {
		t.Fatalf("%s not materialized", name)
	}
	return g
}

// SetCheckpoint rejects malformed policies and unusable directories.
func TestSetCheckpointValidation(t *testing.T) {
	e := New(DMac, testConfig(), tBS)
	if err := e.SetCheckpoint(t.TempDir(), CheckpointPolicy{Interval: -1}); err == nil {
		t.Error("negative interval accepted")
	}
	if err := e.SetCheckpoint("", CheckpointPolicy{}); err != nil {
		t.Errorf("disabling checkpoints: %v", err)
	}
	if e.ckpt != nil {
		t.Error("empty dir did not detach the checkpointer")
	}
}

// A cancelled context aborts RunCtx with the context's error instead of
// running the program.
func TestRunCtxCancelled(t *testing.T) {
	e := New(DMac, testConfig(), tBS)
	bindGNMF(t, e)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RunCtx(ctx, gnmfProgram(0.3), nil); !errors.Is(err, context.Canceled) {
		t.Errorf("RunCtx under cancelled context = %v, want context.Canceled", err)
	}
	// The engine recovers once the context is live again.
	if _, err := e.RunCtx(context.Background(), gnmfProgram(0.3), nil); err != nil {
		t.Errorf("RunCtx after cancellation: %v", err)
	}
}
