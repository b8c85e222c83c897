package engine

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dmac/internal/core"
	"dmac/internal/dist"
	"dmac/internal/expr"
	"dmac/internal/matrix"
)

// peek deep-copies a session variable's grid without handing it out of the
// engine (Grid would take its blocks out of the pool): what a test may keep
// and compare while the engine runs on.
func peek(t *testing.T, e *Engine, name string) *matrix.Grid {
	t.Helper()
	g, ok := e.varGrid(name)
	if !ok {
		t.Fatalf("%s not materialized", name)
	}
	return g.Clone()
}

// withFeedback makes a random program iterate like GNMF: every leaf variable
// is also assigned, from the program's last matrix value of its shape, so
// the next run reads what this one wrote.
func withFeedback(p *expr.Program) *expr.Program {
	for _, leaf := range p.Nodes() {
		if leaf.Kind != expr.KindVar {
			continue
		}
		nodes := p.Nodes()
		for i := len(nodes) - 1; i >= 0; i-- {
			n := nodes[i]
			switch n.Kind {
			case expr.KindVar, expr.KindLoad, expr.KindSum, expr.KindValue, expr.KindNorm2:
				continue
			}
			if n.Rows == leaf.Rows && n.Cols == leaf.Cols {
				p.Assign(leaf.Name, expr.Ref{Node: n})
				break
			}
		}
	}
	return p
}

// TestBlockPoolWarmDifferential runs random iterative programs again and
// again on one warm engine per planner — its pool holding the dead blocks of
// every earlier run, its session reset before some programs and bound over
// before others — with Grid exports interleaved. Every run must give the
// bits the same run gives on a fresh engine, and every exported grid must
// keep its bits through all the runs after it.
func TestBlockPoolWarmDifferential(t *testing.T) {
	const bs, iters = 4, 3
	for _, planner := range []Planner{DMac, SystemMLS, Local} {
		warm := New(planner, testConfig(), bs)
		type export struct {
			label     string
			got, want *matrix.Grid
		}
		var exports []export
		for seed := int64(0); seed < 30; seed++ {
			rng := rand.New(rand.NewSource(seed + 7100))
			prog, _ := core.RandomProgram(rng)
			prog = withFeedback(prog)
			if err := prog.Validate(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			data := denseLeafData(rng, prog, bs)
			fresh := New(planner, testConfig(), bs)
			if seed%2 == 0 {
				warm.Reset()
			}
			for name, g := range data {
				if err := warm.Bind(name, g.Clone()); err != nil {
					t.Fatal(err)
				}
				if err := fresh.Bind(name, g.Clone()); err != nil {
					t.Fatal(err)
				}
			}
			for it := 0; it < iters; it++ {
				label := fmt.Sprintf("%s seed %d run %d", planner, seed, it)
				if _, err := fresh.Run(prog, nil); err != nil {
					t.Fatalf("%s: fresh: %v", label, err)
				}
				if _, err := warm.Run(prog, nil); err != nil {
					t.Fatalf("%s: warm: %v", label, err)
				}
				for _, a := range prog.Assignments() {
					if matrix.BitDiff(peek(t, warm, a.Name), peek(t, fresh, a.Name)) != "" {
						t.Errorf("%s: %s differs from a fresh engine's", label, a.Name)
					}
					if rng.Intn(3) == 0 {
						g := mustGrid(t, warm, a.Name)
						exports = append(exports, export{label + " " + a.Name, g, g.Clone()})
					}
				}
				for _, so := range prog.ScalarOuts() {
					w, _ := warm.Scalar(so.Name)
					f, _ := fresh.Scalar(so.Name)
					if math.Float64bits(w) != math.Float64bits(f) {
						t.Errorf("%s: scalar %s = %v, fresh engine %v", label, so.Name, w, f)
					}
				}
				for _, x := range exports {
					if matrix.BitDiff(x.got, x.want) != "" {
						t.Fatalf("%s: the grid exported at %s changed", label, x.label)
					}
				}
			}
		}
	}
}

// gnmfHUpdate is the H half of gnmfProgram: a program over the same session
// variables with fewer stages.
func gnmfHUpdate() *expr.Program {
	p := expr.NewProgram()
	V := p.Var("V", tRows, tCols, 0.3)
	W := p.Var("W", tRows, tK, 1)
	H := p.Var("H", tK, tCols, 1)
	p.Assign("H", p.CellDiv(p.CellMul(H, p.Mul(W.T(), V)), p.Mul(p.Mul(W.T(), W), H)))
	return p
}

// TestBlockPoolCheckpointRecovery kills a worker at GNMF's last stage, under
// a snapshot after every stage, on an engine whose pool is warm from earlier
// runs of the H update (fewer stages, so the kill cannot fire there): the
// recovery ladder's restore and replay run on recycled blocks like any
// stage. Every run must keep the bits of a fault-free fresh engine running
// the same sequence.
func TestBlockPoolCheckpointRecovery(t *testing.T) {
	stages := ckptStages(t)
	last := stages[len(stages)-1]
	cfg := testConfig()
	cfg.Faults = dist.FaultPlan{Events: []dist.FaultEvent{
		{Stage: last, Worker: 1, Attempt: 0, Kind: dist.FaultKillBoundary},
	}}
	e := New(DMac, cfg, tBS)
	bindGNMF(t, e)
	if err := e.SetCheckpoint(t.TempDir(), CheckpointPolicy{Interval: 1}); err != nil {
		t.Fatal(err)
	}
	ref := New(DMac, testConfig(), tBS)
	bindGNMF(t, ref)
	hUpdate, gnmf := gnmfHUpdate(), gnmfProgram(0.3)
	if plan, err := e.Plan(hUpdate); err != nil || plan.Stages >= last {
		t.Fatalf("the H update must end before stage %d: plan %v, err %v", last, plan, err)
	}
	var total Metrics
	for i, prog := range []*expr.Program{hUpdate, hUpdate, gnmf, gnmf, gnmf} {
		m, err := e.Run(prog, nil)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		total.Add(m)
		if _, err := ref.Run(prog, nil); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"W", "H"} {
			if matrix.BitDiff(peek(t, e, name), peek(t, ref, name)) != "" {
				t.Errorf("run %d: %s is not bit-identical to the fault-free run", i, name)
			}
		}
	}
	if total.Retries != 1 || total.CheckpointBytes == 0 {
		t.Errorf("Retries = %d, CheckpointBytes = %d; want one recovered kill under checkpoints", total.Retries, total.CheckpointBytes)
	}
}

// TestBlockPoolSteadyStateAllocation: once the pool is warm, a GNMF
// iteration takes every result block from the blocks the iteration before
// released. What the process allocates over a run must be under 5 % of the
// result blocks the run takes (the memory tracker's charge). The factor is
// thin enough that every dense block product stays below the packed GEMM,
// whose per-P pooled pack buffers would otherwise be counted whenever a
// goroutine lands on a P that has none.
func TestBlockPoolSteadyStateAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets mean nothing under the race detector")
	}
	const rows, cols, k, bs = 1200, 1680, 16, 120
	rng := rand.New(rand.NewSource(3))
	e := New(DMac, testConfig(), bs)
	for name, g := range map[string]*matrix.Grid{
		"V": randSparseGrid(rng, rows, cols, bs, 0.3),
		"W": randDenseGrid(rng, rows, k, bs),
		"H": randDenseGrid(rng, k, cols, bs),
	} {
		if err := e.Bind(name, g); err != nil {
			t.Fatal(err)
		}
	}
	prog := gnmfProgramDims(rows, cols, k, 0.3)
	run := func() {
		if _, err := e.Run(prog, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		run()
	}
	const runs = 4
	mem := e.Cluster().Executor().Mem()
	charged := mem.Current()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	taken := mem.Current() - charged
	allocated := int64(after.TotalAlloc - before.TotalAlloc)
	if taken <= 0 {
		t.Fatal("the runs took no result blocks")
	}
	t.Logf("%d warm runs: %d bytes allocated, %d bytes of result blocks taken", runs, allocated, taken)
	if allocated*20 >= taken {
		t.Errorf("%d warm GNMF runs allocated %d bytes for %d bytes of result blocks (%.1f %%), want under 5 %%",
			runs, allocated, taken, 100*float64(allocated)/float64(taken))
	}
}
