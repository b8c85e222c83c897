package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dmac/internal/apps"
	"dmac/internal/core"
	"dmac/internal/cost"
	"dmac/internal/dist"
	"dmac/internal/engine"
	"dmac/internal/expr"
	"dmac/internal/obs"
	"dmac/internal/rewrite"
	"dmac/internal/workload"
)

// overEstimate lists the runs that charge more than their plan's estimate,
// with the charge and the estimate: each moves a sparse matrix cut into
// several blocks. The plan prices a sparse |A| as one CSC block
// (cost.SizeBytes: one column-pointer array, the expected stored entries),
// while the grid holds a column-pointer array in every block (Eq. 2,
// cost.GridBytes) and its actual entries, and a run charges the grid.
// PageRank's link (48 x 48, 6 x 6 blocks of 8) holds 1,296 B of column
// pointers where its plan prices 196 B. A change to the plan's size estimate or
// to what these runs charge moves these pins.
var overEstimate = map[string][2]int64{
	"pagerank on DMac, rewriter false, run 1":       {4920, 4204},
	"pagerank on DMac, rewriter true, run 1":        {4536, 3820},
	"pagerank on SystemML-S, rewriter false, run 1": {5688, 4972},
	"pagerank on SystemML-S, rewriter false, run 2": {5688, 4972},
	"pagerank on SystemML-S, rewriter false, run 3": {5688, 4972},
	"pagerank on SystemML-S, rewriter true, run 1":  {4920, 4204},
	"pagerank on SystemML-S, rewriter true, run 2":  {4920, 4204},
	"pagerank on SystemML-S, rewriter true, run 3":  {4920, 4204},
	"linreg on DMac, rewriter false, run 1":         {7496, 6932},
	"linreg on DMac, rewriter false, run 2":         {7560, 7220},
	"linreg on DMac, rewriter true, run 1":          {7496, 6932},
	"linreg on DMac, rewriter true, run 2":          {7560, 7220},
	"linreg on SystemML-S, rewriter false, run 1":   {14840, 13512},
	"linreg on SystemML-S, rewriter false, run 2":   {22000, 20132},
	"linreg on SystemML-S, rewriter false, run 5":   {22000, 20132},
	"linreg on SystemML-S, rewriter true, run 1":    {14840, 13512},
	"linreg on SystemML-S, rewriter true, run 2":    {21808, 19940},
	"linreg on SystemML-S, rewriter true, run 5":    {21808, 19940},
	"random program 1 on SystemML-S, run 1":         {5520, 5464},
	"random program 1 on SystemML-S, run 2":         {5520, 5464},
}

// runsWithinPlan requires every run the tracer saw to have charged at most
// its plan's estimate (the "run" span's comm_bytes against its
// plan_comm_bytes): Eq. 1 prices each collective as if nothing were in
// place, so what a run moves never exceeds it, unless the run is one of
// overEstimate, whose charge and estimate must then be the pinned ones. It
// returns the runs checked and marks the pins it met in seen.
func runsWithinPlan(t *testing.T, label string, tr *obs.Tracer, seen map[string]bool) int {
	t.Helper()
	runs := 0
	for _, s := range tr.Spans() {
		if s.Cat != "engine" || s.Name != "run" {
			continue
		}
		runs++
		charged, ok := s.Attr("comm_bytes")
		planned, planOK := s.Attr("plan_comm_bytes")
		if !ok || !planOK {
			t.Fatalf("%s: run span %d carries comm_bytes %v and plan_comm_bytes %v", label, s.ID, ok, planOK)
		}
		run := fmt.Sprintf("%s, run %d", label, runs)
		got := [2]int64{charged.Int, planned.Int}
		if pin, over := overEstimate[run]; over {
			seen[run] = true
			if got != pin {
				t.Errorf("%s charged %d B against an estimate of %d B, pinned at %d and %d", run, got[0], got[1], pin[0], pin[1])
			}
		} else if got[0] > got[1] {
			t.Errorf("%s charged %d B, more than its plan's estimate of %d B", run, got[0], got[1])
		}
	}
	return runs
}

// tracedEngine is a new engine of the planner with a tracer attached, and
// the rewrite pass when rewriter is set.
func tracedEngine(planner engine.Planner, cfg dist.Config, bs int, rewriter bool) (*engine.Engine, *obs.Tracer) {
	e := engine.New(planner, cfg, bs)
	if rewriter {
		e.SetRewriter(rewrite.New())
	}
	tr := obs.NewTracer()
	e.SetObserver(tr, nil)
	return e, tr
}

// TestEveryRunChargesWithinItsPlan holds each run's charge to its plan's
// estimate, run by run: the pinned applications of TestModelNumbersPinned on
// DMac and SystemML-S, rewriter on and off; every registry job at the
// serve_mix parameters, cut as a service slot cuts it; and a seeded batch of
// random programs on both planners, each leaf bound in the representation
// its plan sizes it in: dense from cost.SparseThreshold up, sparse at its
// declared sparsity below.
func TestEveryRunChargesWithinItsPlan(t *testing.T) {
	const bs = 8
	seen := map[string]bool{}
	cfg := dist.Config{Workers: 4, LocalParallelism: 2}
	pinned := map[string]func(e *engine.Engine) (*apps.Result, error){
		"gnmf": func(e *engine.Engine) (*apps.Result, error) {
			return apps.GNMF(e, workload.SparseUniform(1, 40, 56, bs, 0.2), 4, 2, 7)
		},
		"pagerank": func(e *engine.Engine) (*apps.Result, error) {
			return apps.PageRank(e, workload.PowerLawGraph(2, 48, 3, bs), 3, 7)
		},
		"linreg": func(e *engine.Engine) (*apps.Result, error) {
			return apps.LinReg(e, workload.SparseUniform(3, 64, 24, bs, 0.3), workload.DenseRandom(4, 64, 1, bs), 0.1, 2, 7)
		},
	}
	planners := []engine.Planner{engine.DMac, engine.SystemMLS}
	for app, run := range pinned {
		for _, planner := range planners {
			for _, rw := range []bool{false, true} {
				label := fmt.Sprintf("%s on %s, rewriter %v", app, planner, rw)
				e, tr := tracedEngine(planner, cfg, bs, rw)
				if _, err := run(e); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if runsWithinPlan(t, label, tr, seen) == 0 {
					t.Errorf("%s: no run traced", label)
				}
			}
		}
	}

	params := map[string]workload.Params{
		"pagerank": {"nodes": 1024, "iters": 5, "degree": 8},
		"gram":     {"rows": 512, "cols": 128, "sparsity": 0.05},
		"blend":    {"n": 256, "k": 32, "iters": 2},
	}
	reg := workload.DefaultRegistry()
	for _, name := range reg.Names() {
		p, ok := params[name]
		if !ok {
			t.Fatalf("registry job %q has no parameters here", name)
		}
		e, tr := tracedEngine(engine.DMac, dist.ScaledConfig(4, 8), 32, true)
		size := func(rows, cols int, density float64) int { return max(32, e.BlockSizeFor(rows, cols, density)) }
		b, err := reg.BuildSized(name, size, p)
		if err != nil {
			t.Fatal(err)
		}
		for n, g := range b.Inputs {
			if err := e.Bind(n, g); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < b.Iterations; i++ {
			if _, err := e.Run(b.Program, b.Params); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if got := runsWithinPlan(t, name, tr, seen); got != b.Iterations {
			t.Errorf("%s: %d runs traced, want %d", name, got, b.Iterations)
		}
	}

	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed + 5000))
		prog, _ := core.RandomProgram(rng)
		const rbs = 4
		for _, planner := range planners {
			label := fmt.Sprintf("random program %d on %s", seed, planner)
			e, tr := tracedEngine(planner, cfg, rbs, false)
			bound := map[string]bool{}
			for _, n := range prog.Nodes() {
				if (n.Kind == expr.KindVar || n.Kind == expr.KindLoad) && !bound[n.Name] {
					bound[n.Name] = true
					g := workload.DenseRandom(seed, n.Rows, n.Cols, rbs)
					if n.Sparsity < cost.SparseThreshold {
						g = workload.SparseUniform(seed, n.Rows, n.Cols, rbs, n.Sparsity)
					}
					if err := e.Bind(n.Name, g); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
			}
			for iter := 0; iter < 2; iter++ {
				if _, err := e.Run(prog, nil); err != nil {
					t.Fatalf("%s, iteration %d: %v", label, iter, err)
				}
			}
			if got := runsWithinPlan(t, label, tr, seen); got != 2 {
				t.Errorf("%s: %d runs traced, want 2", label, got)
			}
		}
	}
	for run := range overEstimate {
		if !seen[run] {
			t.Errorf("pinned run %q never ran", run)
		}
	}
}
