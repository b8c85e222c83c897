package engine_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dmac/internal/apps"
	"dmac/internal/core"
	"dmac/internal/dist"
	"dmac/internal/engine"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/workload"
)

// chargesBS is the block size of the charge tests: the pinned apps' toy size.
const chargesBS = 8

// faultedConfig is a cluster whose seeded plan kills a task, stalls a stage
// boundary and delays a stage's traffic in GNMF's every run.
func faultedConfig() dist.Config {
	return dist.Config{Workers: 4, LocalParallelism: 2, Faults: dist.FaultPlan{Seed: 11, Events: []dist.FaultEvent{
		{Stage: 1, Worker: 0, Kind: dist.FaultDelay, DelaySec: 0.25},
		{Stage: 2, Worker: 1, Kind: dist.FaultKillTask},
		{Stage: 3, Worker: 2, Kind: dist.FaultNetDelay, DelaySec: 0.125},
	}}}
}

// runGNMF runs the pinned GNMF on a fresh engine.
func runGNMF(t *testing.T, planner engine.Planner, cfg dist.Config) (*engine.Engine, []engine.Metrics) {
	t.Helper()
	e := engine.New(planner, cfg, chargesBS)
	res, err := apps.GNMF(e, workload.SparseUniform(1, 40, 56, chargesBS, 0.2), 4, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	return e, res.PerIteration
}

// stageSum folds a run's stage records in stage order.
func stageSum(m engine.Metrics) dist.Snapshot {
	var sum dist.Snapshot
	for _, s := range m.PerStage {
		sum.Add(s.Snapshot)
	}
	return sum
}

// sameCharges reports whether a and b are the same record, floats to the
// bit. Snapshot holds only comparable fields, and == compares floats by
// value; the bits are compared apart, where -0 and NaN would show.
func sameCharges(a, b dist.Snapshot) bool {
	return a == b && math.Float64bits(a.FLOPs) == math.Float64bits(b.FLOPs) &&
		math.Float64bits(a.StallSec) == math.Float64bits(b.StallSec)
}

// TestStallBookedToStages: under a plan that kills a task, stalls a stage
// boundary and delays a stage's traffic, every stalled second — the delays
// and the retry backoff — is booked to a stage, so the stage records' modelled
// seconds add up to the run's ModelSeconds.
func TestStallBookedToStages(t *testing.T) {
	_, runs := runGNMF(t, engine.DMac, faultedConfig())
	var total engine.Metrics
	for _, m := range runs {
		total.Add(m)
	}
	if total.Retries == 0 || total.NetDelaysInjected == 0 {
		t.Fatalf("%d retries, %d network delays: the plan must fire both", total.Retries, total.NetDelaysInjected)
	}
	// The first run's stall by stage: the boundary delay, the backoff before
	// the killed stage's retry, the delayed traffic. The retry and the
	// recovery shuffle book to the stage whose task was killed.
	want := []float64{0.25, 0.05, 0.125, 0, 0}
	for i, s := range runs[0].PerStage {
		if i >= len(want) || s.StallSec != want[i] {
			t.Errorf("first run: stage %d stalled %v s, want %v", s.Stage, s.StallSec, want)
		}
		if killed := s.Stage == 2; (s.Retries == 1) != killed || (s.RecoveryBytes > 0) != killed {
			t.Errorf("first run: stage %d booked %d retries and %d recovery bytes; want them on stage 2 only",
				s.Stage, s.Retries, s.RecoveryBytes)
		}
	}
	if m := runs[0]; m.Retries != 1 || m.RecoveryBytes == 0 {
		t.Errorf("first run: %d retries, %d recovery bytes; want the one retry and its recovery", m.Retries, m.RecoveryBytes)
	}
	for i, m := range append(runs, total) {
		var model float64
		for _, s := range m.PerStage {
			model += s.ComputeSeconds + s.NetworkSeconds + s.StallSec
		}
		if stageSum(m).StallSec == 0 {
			t.Errorf("run %d: no stage booked stall", i)
		}
		if math.Abs(model-m.ModelSeconds) > 1e-12*m.ModelSeconds {
			t.Errorf("run %d: stages sum to %v modelled seconds, ModelSeconds is %v", i, model, m.ModelSeconds)
		}
	}
}

// TestChargesFoldExactly: a run's totals are its stage records summed, and
// NetStats holds the runs' summed totals — field for field, floats to the
// bit — for the pinned apps on every planner, random programs whose sparse
// leaves charge fractional FLOPs, and a faulted GNMF. Each job runs on a
// fresh cluster. The apps fold several runs into one iteration's Metrics;
// their toy charges are whole numbers, so those folds are exact too.
func TestChargesFoldExactly(t *testing.T) {
	check := func(label string, e *engine.Engine, runs []engine.Metrics) {
		t.Helper()
		var total dist.Snapshot
		for i, m := range runs {
			if sum := stageSum(m); !sameCharges(sum, m.Snapshot) {
				t.Errorf("%s run %d: stages sum to %+v,\nthe run charged %+v", label, i, sum, m.Snapshot)
			}
			total.Add(m.Snapshot)
		}
		if got := e.Cluster().Net().Snapshot(); !sameCharges(got, total) {
			t.Errorf("%s: NetStats %+v,\nthe runs sum to %+v", label, got, total)
		}
	}

	pinned := map[string]func(e *engine.Engine) (*apps.Result, error){
		"gnmf": func(e *engine.Engine) (*apps.Result, error) {
			return apps.GNMF(e, workload.SparseUniform(1, 40, 56, chargesBS, 0.2), 4, 2, 7)
		},
		"pagerank": func(e *engine.Engine) (*apps.Result, error) {
			return apps.PageRank(e, workload.PowerLawGraph(2, 48, 3, chargesBS), 3, 7)
		},
		"linreg": func(e *engine.Engine) (*apps.Result, error) {
			return apps.LinReg(e, workload.SparseUniform(3, 64, 24, chargesBS, 0.3), workload.DenseRandom(4, 64, 1, chargesBS), 0.1, 2, 7)
		},
	}
	planners := []engine.Planner{engine.DMac, engine.SystemMLS, engine.Local}
	for app, run := range pinned {
		for _, planner := range planners {
			e := engine.New(planner, dist.Config{Workers: 4, LocalParallelism: 2}, chargesBS)
			res, err := run(e)
			if err != nil {
				t.Fatal(err)
			}
			check(app+" on "+planner.String(), e, res.PerIteration)
		}
	}

	const programs = 60
	fractional := 0
	for seed := int64(0); seed < programs; seed++ {
		rng := rand.New(rand.NewSource(seed + 5700))
		prog, _ := core.RandomProgram(rng)
		data := make(map[string]*matrix.Grid)
		for _, n := range prog.Nodes() {
			if (n.Kind == expr.KindVar || n.Kind == expr.KindLoad) && data[n.Name] == nil {
				data[n.Name] = workload.SparseUniform(rng.Int63(), n.Rows, n.Cols, chargesBS, 0.5)
			}
		}
		for _, planner := range planners {
			e := engine.New(planner, dist.Config{Workers: 4, LocalParallelism: 2}, chargesBS)
			for name, g := range data {
				if err := e.Bind(name, g); err != nil {
					t.Fatal(err)
				}
			}
			m, err := e.Run(prog, nil)
			if err != nil {
				t.Fatalf("seed %d on %s: %v", seed, planner, err)
			}
			if m.FLOPs != math.Trunc(m.FLOPs) {
				fractional++
			}
			check(fmt.Sprintf("seed %d on %s", seed, planner), e, []engine.Metrics{m})
		}
	}
	if fractional == 0 {
		t.Error("no random program charged fractional FLOPs: the fold is never tested off whole numbers")
	}

	e, runs := runGNMF(t, engine.DMac, faultedConfig())
	check("faulted gnmf", e, runs)
}
