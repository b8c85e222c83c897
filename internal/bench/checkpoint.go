package bench

import (
	"context"
	"fmt"
	"io"
	"path/filepath"

	"dmac/internal/apps"
	"dmac/internal/dist"
	"dmac/internal/engine"
	"dmac/internal/matrix"
	"dmac/internal/obs"
	"dmac/internal/workload"
)

// CheckpointSweepRow is one row of the recovery-cost-vs-checkpoint-interval
// experiment: PageRank under a fixed fault plan, one run per interval.
type CheckpointSweepRow struct {
	// Interval is the checkpoint interval in stages; 0 runs without
	// checkpointing, so recovery replays the full lineage.
	Interval int
	// Retries counts stage attempts repeated after the injected failures.
	Retries int
	// StagesReplayed is the recomputation the recovery paid: stages re-run
	// between the restored snapshot (or the run's start) and the failure.
	StagesReplayed int
	// CheckpointKB is the durability cost: snapshot bytes written.
	CheckpointKB float64
	// ReferencedKB is what the snapshots left to the session: the footprint
	// of the live grids they named by variable instead of writing.
	ReferencedKB float64
	// BusySec is the time the background writer spent writing; WaitSec the
	// part of it the run was blocked on, the rest having overlapped compute.
	BusySec, WaitSec float64
	// RecoveryBytes is the communication spent re-partitioning the dead
	// worker's blocks.
	RecoveryBytes int64
	// ModelSec is the modelled run time, recovery included.
	ModelSec float64
	// Match reports bit-identical final ranks vs the fault-free run.
	Match bool
}

// CheckpointSweep measures recovery cost against checkpoint interval: the
// chaos sweep's PageRank workload runs under a fixed FaultPlan (a boundary
// kill of worker 1 at the last stage of the iteration plan) once per
// interval, checkpointing into its own subdirectory of dir. It returns the
// rows and the stage the kill targets. Interval 0 is the lineage-only
// baseline the paper-style trade-off is measured against.
func CheckpointSweep(ctx context.Context, dir string, intervals []int, iters int) ([]CheckpointSweepRow, int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	runPR := func(e *engine.Engine) (*apps.Result, error) {
		adj := workload.PowerLawGraph(2, 28, 3, smallBlockSize)
		return apps.PageRank(e, adj, iters, 11)
	}
	// Fault-free baseline: reference ranks, plus the stage structure the
	// kill must target. Iteration plans can differ while session schemes
	// stabilize, so the kill targets the last stage every iteration has.
	base := newEngine(engine.DMac, DefaultWorkers, smallBlockSize)
	base.SetBaseContext(ctx)
	bres, err := runPR(base)
	if err != nil {
		return nil, 0, fmt.Errorf("checkpoint sweep baseline: %w", err)
	}
	killStage := bres.PerIteration[0].Stages
	for _, m := range bres.PerIteration {
		if m.Stages < killStage {
			killStage = m.Stages
		}
	}
	if killStage < 2 {
		return nil, 0, fmt.Errorf("checkpoint sweep: PageRank plan has %d stages, need >= 2", killStage)
	}
	wantRank, ok := base.Grid("rank")
	if !ok {
		return nil, 0, fmt.Errorf("checkpoint sweep: baseline has no rank output")
	}
	faults := dist.FaultPlan{Events: []dist.FaultEvent{
		{Stage: killStage, Worker: 1, Attempt: 0, Kind: dist.FaultKillBoundary},
	}}
	if err := faults.Validate(); err != nil {
		return nil, 0, fmt.Errorf("checkpoint sweep: %w", err)
	}
	var rows []CheckpointSweepRow
	for _, interval := range intervals {
		if interval < 0 {
			return nil, 0, fmt.Errorf("checkpoint sweep: negative interval %d", interval)
		}
		cfg := clusterConfig(DefaultWorkers)
		cfg.Faults = faults
		e := engine.New(engine.DMac, cfg, smallBlockSize)
		e.SetBaseContext(ctx)
		reg := obs.NewRegistry()
		e.SetObserver(nil, reg)
		if interval > 0 {
			sub := filepath.Join(dir, fmt.Sprintf("interval-%d", interval))
			if err := e.SetCheckpoint(sub, engine.CheckpointPolicy{Interval: interval}); err != nil {
				return nil, 0, err
			}
		}
		res, err := runPR(e)
		if err != nil {
			return nil, 0, fmt.Errorf("checkpoint sweep interval %d: %w", interval, err)
		}
		got, gok := e.Grid("rank")
		t := res.Total()
		rows = append(rows, CheckpointSweepRow{
			Interval:       interval,
			Retries:        t.Retries,
			StagesReplayed: t.StagesReplayed,
			CheckpointKB:   float64(t.CheckpointBytes) / 1e3,
			ReferencedKB:   float64(reg.Counter("ckpt.session_ref.bytes").Value()) / 1e3,
			BusySec:        t.CheckpointSeconds,
			WaitSec:        t.CheckpointWaitSeconds,
			RecoveryBytes:  t.RecoveryBytes,
			ModelSec:       t.ModelSeconds,
			Match:          gok && matrix.GridEqual(got, wantRank, 0),
		})
	}
	return rows, killStage, nil
}

// WriteCheckpointSweep renders the sweep as a report table.
func WriteCheckpointSweep(w io.Writer, killStage int, rows []CheckpointSweepRow) {
	fmt.Fprintf(w, "Recovery cost vs checkpoint interval: PageRank, boundary kill of worker 1 at stage %d\n\n", killStage)
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		interval := fmt.Sprintf("%d", r.Interval)
		if r.Interval == 0 {
			interval = "off"
		}
		out = append(out, []string{
			interval,
			fmt.Sprintf("%d", r.Retries),
			fmt.Sprintf("%d", r.StagesReplayed),
			fmt.Sprintf("%.1f", r.CheckpointKB),
			fmt.Sprintf("%.1f", r.ReferencedKB),
			fmt.Sprintf("%.4f", r.BusySec),
			fmt.Sprintf("%.4f", r.WaitSec),
			fmt.Sprintf("%d", r.RecoveryBytes),
			fmt.Sprintf("%.4f", r.ModelSec),
			fmt.Sprintf("%v", r.Match),
		})
	}
	writeTable(w, []string{"interval", "retries", "replayed", "ckpt KB", "session KB", "busy s", "wait s", "recovery B", "model s", "bit-identical"}, out)
}
