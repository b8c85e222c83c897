package dist_test

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"dmac/internal/apps"
	"dmac/internal/dist"
	"dmac/internal/engine"
	"dmac/internal/matrix"
	"dmac/internal/workload"
)

// The chaos sweep runs every workload below under every fault plan on the
// DMac engine, on the scaled cluster model the paper experiments use, and
// compares each run bit for bit with the workload's fault-free run.
const (
	chaosWorkers          = 4
	chaosLocalParallelism = 8
	chaosBlockSize        = 8 // keeps every dataset multi-block
)

// chaosWorkload is a seeded deterministic run plus the session variables and
// scalars whose final values must not move under injected faults.
type chaosWorkload struct {
	name             string
	outputs, scalars []string
	run              func(e *engine.Engine) (*apps.Result, error)
}

func chaosWorkloads() []chaosWorkload {
	return []chaosWorkload{
		{name: "gnmf", outputs: []string{"W", "H"}, run: func(e *engine.Engine) (*apps.Result, error) {
			return apps.GNMF(e, workload.SparseUniform(1, 30, 40, chaosBlockSize, 0.3), 5, 3, 42)
		}},
		{name: "pagerank", outputs: []string{"rank"}, run: func(e *engine.Engine) (*apps.Result, error) {
			return apps.PageRank(e, workload.PowerLawGraph(2, 28, 3, chaosBlockSize), 3, 11)
		}},
		{name: "cf", outputs: []string{"predict"}, scalars: []string{"result_norm"}, run: func(e *engine.Engine) (*apps.Result, error) {
			return apps.CF(e, workload.Ratings(3, 24, 36, chaosBlockSize, 0.2))
		}},
		{name: "linreg", outputs: []string{"w"}, run: func(e *engine.Engine) (*apps.Result, error) {
			v, y, _ := apps.LabeledData(4, 30, 9, chaosBlockSize, 0.5)
			return apps.LinReg(e, v, y, 0.1, 3, 17)
		}},
	}
}

type chaosPlan struct {
	name string
	plan dist.FaultPlan
}

// chaosPlans are the sweep's fault plans. Stage 1 exists in every plan
// (stages are 1-based), so the scripted kills and corruptions are sure to
// fire; the random plans add seeded faults across all stages.
func chaosPlans() []chaosPlan {
	return []chaosPlan{
		{"boundary-kill", dist.FaultPlan{Events: []dist.FaultEvent{
			{Stage: 1, Worker: 1, Attempt: 0, Kind: dist.FaultKillBoundary},
			{Stage: 2, Worker: 2, Attempt: 0, Kind: dist.FaultDelay, DelaySec: 0.2},
		}}},
		{"task-kill", dist.FaultPlan{Events: []dist.FaultEvent{
			{Stage: 1, Worker: 2, Attempt: 0, Kind: dist.FaultKillTask},
			{Stage: 2, Worker: 0, Attempt: 0, Kind: dist.FaultKillBoundary},
		}}},
		{"random-15pct", dist.RandomFaultPlan(7, 0.15)},
		// Bytes flipped in transit must be caught by the hand-off checksum,
		// quarantined and re-fetched.
		{"corrupt", dist.FaultPlan{Events: []dist.FaultEvent{
			{Stage: 1, Worker: 1, Attempt: 0, Kind: dist.FaultCorrupt},
			{Stage: 2, Worker: 3, Attempt: 0, Kind: dist.FaultCorrupt},
		}}},
		// Worker kills racing seeded corruption.
		{"kill+corrupt", dist.FaultPlan{Seed: 5, CorruptRate: 0.2, Events: []dist.FaultEvent{
			{Stage: 1, Worker: 2, Attempt: 0, Kind: dist.FaultCorrupt},
			{Stage: 2, Worker: 1, Attempt: 0, Kind: dist.FaultKillBoundary},
		}}},
		// Seeded frame drops healed by retransmit plus a scripted delay:
		// nothing is lost, only stall time grows.
		{"net-drop+delay", dist.FaultPlan{Seed: 11, NetDropRate: 0.3, Events: []dist.FaultEvent{
			{Stage: 2, Worker: 2, Attempt: 0, Kind: dist.FaultNetDelay, DelaySec: 0.2},
		}}},
		// A worker cut off mid-job: the first collective reaching it fails
		// typed, recovery removes it, lineage re-partitions around it. Stage 2
		// because stage 1 has no collective on several of the workloads.
		{"net-partition", dist.FaultPlan{Events: []dist.FaultEvent{
			{Stage: 2, Worker: 1, Attempt: 0, Kind: dist.FaultNetPartition},
		}}},
	}
}

func planCorrupts(p dist.FaultPlan) bool {
	for _, ev := range p.Events {
		if ev.Kind == dist.FaultCorrupt {
			return true
		}
	}
	return p.CorruptRate > 0
}

// chaosCell is one workload run under one fault plan; match reports every
// output and scalar bit-identical to the fault-free run.
type chaosCell struct {
	workload, plan                           string
	retries, deadWorkers, stagesReplayed     int
	corruptionsInjected, corruptionsDetected int
	netDrops, netDelays                      int
	recoveryBytes, commBytes, ckptBytes      int64
	modelSec                                 float64
	match                                    bool
}

// runChaos sweeps every workload across every fault plan (only the
// corrupting ones when corruptOnly is set). A non-empty checkpointDir gives
// every faulted engine its own snapshot directory below it (interval 1).
// Every engine is closed as soon as its cell ends.
func runChaos(checkpointDir string, corruptOnly bool) ([]chaosCell, error) {
	plans := chaosPlans()
	for _, cp := range plans {
		if err := cp.plan.Validate(); err != nil {
			return nil, fmt.Errorf("plan %s: %w", cp.name, err)
		}
	}
	var cells []chaosCell
	for _, wl := range chaosWorkloads() {
		wlCells, err := runChaosWorkload(wl, plans, checkpointDir, corruptOnly)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		cells = append(cells, wlCells...)
	}
	return cells, nil
}

func runChaosWorkload(wl chaosWorkload, plans []chaosPlan, checkpointDir string, corruptOnly bool) ([]chaosCell, error) {
	base := engine.New(engine.DMac, dist.ScaledConfig(chaosWorkers, chaosLocalParallelism), chaosBlockSize)
	defer base.Close()
	if _, err := wl.run(base); err != nil {
		return nil, fmt.Errorf("fault-free run: %w", err)
	}
	var cells []chaosCell
	for _, cp := range plans {
		if corruptOnly && !planCorrupts(cp.plan) {
			continue
		}
		cell, err := runChaosCell(base, wl, cp, checkpointDir)
		if err != nil {
			return nil, fmt.Errorf("plan %s: %w", cp.name, err)
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

func runChaosCell(base *engine.Engine, wl chaosWorkload, cp chaosPlan, checkpointDir string) (chaosCell, error) {
	cfg := dist.ScaledConfig(chaosWorkers, chaosLocalParallelism)
	cfg.Faults = cp.plan
	e := engine.New(engine.DMac, cfg, chaosBlockSize)
	defer e.Close()
	if checkpointDir != "" {
		dir := filepath.Join(checkpointDir, wl.name+"-"+cp.name)
		if err := e.SetCheckpoint(dir, engine.CheckpointPolicy{Interval: 1}); err != nil {
			return chaosCell{}, err
		}
	}
	res, err := wl.run(e)
	if err != nil {
		return chaosCell{}, err
	}
	match := true
	for _, name := range wl.outputs {
		got, ok1 := e.Grid(name)
		want, ok2 := base.Grid(name)
		match = match && ok1 && ok2 && matrix.BitDiff(got, want) == ""
	}
	for _, name := range wl.scalars {
		got, ok1 := e.Scalar(name)
		want, ok2 := base.Scalar(name)
		// By bits, as the grids are: a NaN matches only its own payload and
		// −0 does not pass for +0.
		match = match && ok1 && ok2 && math.Float64bits(got) == math.Float64bits(want)
	}
	t := res.Total()
	return chaosCell{
		workload: wl.name, plan: cp.name,
		retries: t.Retries, deadWorkers: len(e.Cluster().DeadWorkers()), stagesReplayed: t.StagesReplayed,
		corruptionsInjected: t.CorruptionsInjected, corruptionsDetected: t.CorruptionsDetected,
		netDrops: t.NetDropsInjected, netDelays: t.NetDelaysInjected,
		recoveryBytes: t.RecoveryBytes, commBytes: t.CommBytes, ckptBytes: t.CheckpointBytes,
		modelSec: t.ModelSeconds,
		match:    match,
	}, nil
}

// TestChaosSweepBitIdentical is the chaos harness's acceptance gate: every
// registered workload, under every fault plan (scripted kills, seeded random
// kills, scripted and seeded block corruption, and the combined kill+corrupt
// regime), must complete via stage retry, lineage recovery, and checksum
// quarantine, and produce outputs bit-identical to the fault-free run — with
// the recovery work visible in the metrics and every injected corruption
// detected.
func TestChaosSweepBitIdentical(t *testing.T) {
	results, err := runChaos("", false)
	if err != nil {
		t.Fatalf("chaos sweep: %v", err)
	}
	plans := len(chaosPlans())
	if plans < 4 {
		t.Fatalf("chaos sweep needs >= 4 fault plans (kills and corruption), have %d", plans)
	}
	wantCells := len(chaosWorkloads()) * plans
	if len(results) != wantCells {
		t.Fatalf("chaos sweep produced %d cells, want %d", len(results), wantCells)
	}
	retriesPerWorkload := make(map[string]int)
	recoveryPerWorkload := make(map[string]int64)
	injectedPerPlan := make(map[string]int)
	deadPerPlan := make(map[string]int)
	dropsPerPlan := make(map[string]int)
	delaysPerPlan := make(map[string]int)
	for _, r := range results {
		if !r.match {
			t.Errorf("%s under plan %s diverged from the fault-free run", r.workload, r.plan)
		}
		if r.retries > 0 && r.deadWorkers == 0 {
			t.Errorf("%s/%s reports %d retries with no dead workers", r.workload, r.plan, r.retries)
		}
		if r.corruptionsInjected != r.corruptionsDetected {
			t.Errorf("%s/%s: %d corruptions injected but %d detected — integrity invariant broken",
				r.workload, r.plan, r.corruptionsInjected, r.corruptionsDetected)
		}
		retriesPerWorkload[r.workload] += r.retries
		recoveryPerWorkload[r.workload] += r.recoveryBytes
		injectedPerPlan[r.plan] += r.corruptionsInjected
		deadPerPlan[r.plan] += r.deadWorkers
		dropsPerPlan[r.plan] += r.netDrops
		delaysPerPlan[r.plan] += r.netDelays
	}
	for wl, retries := range retriesPerWorkload {
		if retries == 0 {
			t.Errorf("workload %s never retried under any fault plan", wl)
		}
		if recoveryPerWorkload[wl] == 0 {
			t.Errorf("workload %s reported no recovery bytes under any fault plan", wl)
		}
	}
	for _, plan := range []string{"corrupt", "kill+corrupt"} {
		if injectedPerPlan[plan] == 0 {
			t.Errorf("plan %s never injected a corruption in any workload", plan)
		}
	}
	// The network plans must actually fire — a partition or drop event aimed
	// at a stage with no collective would otherwise pass as a silent no-op.
	if deadPerPlan["net-partition"] == 0 {
		t.Error("plan net-partition never cut a worker off in any workload")
	}
	if dropsPerPlan["net-drop+delay"] == 0 {
		t.Error("plan net-drop+delay never dropped a collective in any workload")
	}
	if delaysPerPlan["net-drop+delay"] == 0 {
		t.Error("plan net-drop+delay never stalled a collective in any workload")
	}
}

// TestChaosSweepDeterministic runs the sweep twice and requires identical
// accounting: the same plans must kill the same workers, corrupt the same
// blocks and charge the same recovery bytes — the reproducibility the seeded
// fault plans promise.
func TestChaosSweepDeterministic(t *testing.T) {
	a, err := runChaos("", false)
	if err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	b, err := runChaos("", false)
	if err != nil {
		t.Fatalf("second sweep: %v", err)
	}
	if len(a) != len(b) {
		t.Fatalf("sweeps differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("cell %d differs across sweeps:\n  %+v\n  %+v", i, a[i], b[i])
		}
	}
}

// TestChaosSweepCorruptOnlyWithCheckpoints sweeps only the corruption-bearing
// plans, every faulted engine checkpointing into a hermetic temp dir. Results
// must stay bit-identical and every corruption detected, with
// checkpoint-aware recovery visible where kills fired.
func TestChaosSweepCorruptOnlyWithCheckpoints(t *testing.T) {
	results, err := runChaos(t.TempDir(), true)
	if err != nil {
		t.Fatalf("corrupt-only sweep: %v", err)
	}
	if len(results) == 0 {
		t.Fatal("corrupt-only sweep produced no cells")
	}
	var injected, ckptBytes int64
	for _, r := range results {
		if !r.match {
			t.Errorf("%s/%s diverged from the fault-free run", r.workload, r.plan)
		}
		if r.corruptionsInjected != r.corruptionsDetected {
			t.Errorf("%s/%s: injected %d != detected %d",
				r.workload, r.plan, r.corruptionsInjected, r.corruptionsDetected)
		}
		injected += int64(r.corruptionsInjected)
		ckptBytes += r.ckptBytes
	}
	if injected == 0 {
		t.Error("corrupt-only sweep injected no corruption anywhere")
	}
	if ckptBytes == 0 {
		t.Error("checkpointing enabled but no checkpoint bytes written")
	}
}
