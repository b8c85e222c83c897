package engine

import (
	"runtime"
	"testing"
	"time"

	"dmac/internal/dist"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/obs"
	"dmac/internal/rewrite"
	"dmac/internal/workload"
)

// rewriteWorkload exercises both structural rules: a product read only
// transposed and a left-associated chain with a cheap interior.
func rewriteWorkload() *expr.Program {
	p := expr.NewProgram()
	a := p.Var("A", 24, 6, 1)
	b := p.Var("B", 6, 24, 1)
	c := p.Var("C", 24, 10, 1)
	ab := p.Mul(a, b)
	p.Assign("pushdown", p.Mul(ab.T(), c))
	g := p.Var("G", 40, 4, 1)
	h := p.Var("H", 4, 40, 1)
	i := p.Var("I", 40, 4, 1)
	p.Assign("chain", p.Mul(p.Mul(g, h), i))
	p.Sum("total", p.Mul(g, h))
	return p
}

func bindRewriteLeaves(t *testing.T, e *Engine, bs int) {
	t.Helper()
	seed := int64(11)
	for _, leaf := range []struct {
		name       string
		rows, cols int
	}{{"A", 24, 6}, {"B", 6, 24}, {"C", 24, 10}, {"G", 40, 4}, {"H", 4, 40}, {"I", 40, 4}} {
		if err := e.Bind(leaf.name, workload.DenseRandom(seed, leaf.rows, leaf.cols, bs)); err != nil {
			t.Fatal(err)
		}
		seed++
	}
}

// With and without the rewriter, the DMac engine computes the same outputs;
// the rewriter-on engine records its decisions in the metrics registry.
func TestEngineRewriterEquivalence(t *testing.T) {
	const bs = 5
	run := func(withRewriter bool) (*Engine, *obs.Registry) {
		reg := obs.NewRegistry()
		e := New(DMac, dist.Config{Workers: 3, LocalParallelism: 2}, bs)
		e.SetObserver(nil, reg)
		if withRewriter {
			e.SetRewriter(rewrite.New())
		}
		bindRewriteLeaves(t, e, bs)
		if _, err := e.Run(rewriteWorkload(), nil); err != nil {
			t.Fatal(err)
		}
		return e, reg
	}

	plain, _ := run(false)
	rewritten, reg := run(true)

	for _, out := range []string{"pushdown", "chain"} {
		gp, ok1 := plain.Grid(out)
		gr, ok2 := rewritten.Grid(out)
		if !ok1 || !ok2 {
			t.Fatalf("output %s missing (plain=%v rewritten=%v)", out, ok1, ok2)
		}
		if !matrix.GridEqual(gp, gr, 1e-9) {
			t.Errorf("output %s differs between plain and rewritten runs", out)
		}
	}
	sp, _ := plain.Scalar("total")
	sr, _ := rewritten.Scalar("total")
	if diff := sp - sr; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("scalar total differs: %g vs %g", sp, sr)
	}

	snap := reg.Snapshot()
	if snap.Counters["rewrite.programs"] == 0 {
		t.Error("rewrite.programs counter not incremented")
	}
	if snap.Counters["rewrite.applied"] == 0 {
		t.Error("rewrite.applied counter not incremented")
	}
	if snap.Counters["rewrite.applied."+rewrite.RuleTransposePushdown] == 0 {
		t.Error("per-rule pushdown counter not incremented")
	}
	if snap.Counters["rewrite.predicted.flops_saved"] == 0 {
		t.Error("predicted FLOP savings not recorded")
	}
}

// The rewriter's A/B at sizes where reordering pays. On the small
// rewriteWorkload it saves FLOPs and bytes but raises modelled seconds (the
// rewriter is plan-blind), so the model-seconds gain is asserted here only:
// on a left-associated chain whose interior explodes, and on a product read
// only transposed, FLOPs and ModelSeconds fall and the predicted FLOP saving
// is within 2x of the measured one. Gram and a GNMF H-update have no
// structural rewrite, so their FLOPs must not move. Outputs always agree.
func TestRewriterSavingsAtScale(t *testing.T) {
	type leaf struct {
		name       string
		rows, cols int
		sparsity   float64
	}
	cases := []struct {
		name       string
		bs         int
		structural bool
		leaves     []leaf
		build      func(p *expr.Program, v map[string]expr.Ref)
	}{
		{"matrix-chain", 32, true, []leaf{{"A", 768, 24, 1}, {"B", 24, 768, 1}, {"C", 768, 24, 1}, {"D", 24, 96, 1}},
			func(p *expr.Program, v map[string]expr.Ref) {
				p.Assign("out", p.Mul(p.Mul(p.Mul(v["A"], v["B"]), v["C"]), v["D"]))
			}},
		{"transpose-pushdown", 32, true, []leaf{{"A", 512, 32, 1}, {"B", 32, 512, 1}, {"C", 512, 64, 1}},
			func(p *expr.Program, v map[string]expr.Ref) {
				p.Assign("out", p.Mul(p.Mul(v["A"], v["B"]).T(), v["C"]))
			}},
		{"gram", 32, false, []leaf{{"V", 512, 96, 0.1}},
			func(p *expr.Program, v map[string]expr.Ref) {
				g := p.Mul(v["V"].T(), v["V"])
				p.Sum("gram_sum", g)
				p.Assign("G", g)
			}},
		{"gnmf-micro", 16, false, []leaf{{"V", 160, 240, 0.05}, {"W", 160, 12, 1}, {"H", 12, 240, 1}},
			func(p *expr.Program, v map[string]expr.Ref) {
				w, h := v["W"], v["H"]
				den := p.Mul(p.Mul(w.T(), w), h)
				p.Assign("H", p.CellDiv(p.CellMul(h, p.Mul(w.T(), v["V"])), den))
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(on bool) (*Engine, Metrics, *obs.Registry) {
				p := expr.NewProgram()
				refs := map[string]expr.Ref{}
				reg := obs.NewRegistry()
				e := New(DMac, dist.ScaledConfig(4, 8), tc.bs)
				t.Cleanup(func() { e.Close() })
				e.SetObserver(nil, reg)
				if on {
					e.SetRewriter(rewrite.New())
				}
				for i, l := range tc.leaves {
					refs[l.name] = p.Var(l.name, l.rows, l.cols, l.sparsity)
					g := workload.DenseRandom(301+int64(i), l.rows, l.cols, tc.bs)
					if l.sparsity < 1 {
						g = workload.SparseUniform(301+int64(i), l.rows, l.cols, tc.bs, l.sparsity)
					}
					if err := e.Bind(l.name, g); err != nil {
						t.Fatal(err)
					}
				}
				tc.build(p, refs)
				m, err := e.Run(p, nil)
				if err != nil {
					t.Fatal(err)
				}
				return e, m, reg
			}
			offE, off, _ := run(false)
			onE, on, reg := run(true)
			for _, name := range []string{"out", "G", "H"} {
				if a, ok := offE.Grid(name); ok {
					if b, ok := onE.Grid(name); !ok || !matrix.GridEqual(a, b, 1e-9) {
						t.Errorf("output %s differs with the rewriter on", name)
					}
				}
			}
			if !tc.structural {
				if on.FLOPs != off.FLOPs {
					t.Errorf("FLOPs moved on a structurally fixed program: %g -> %g", off.FLOPs, on.FLOPs)
				}
				return
			}
			if on.FLOPs >= off.FLOPs || on.ModelSeconds >= off.ModelSeconds {
				t.Errorf("rewrite did not pay: FLOPs %g -> %g, model s %g -> %g", off.FLOPs, on.FLOPs, off.ModelSeconds, on.ModelSeconds)
			}
			snap := reg.Snapshot()
			if snap.Counters["rewrite.applied"] == 0 {
				t.Error("no rewrites recorded")
			}
			meas := off.FLOPs - on.FLOPs
			if pred := float64(snap.Counters["rewrite.predicted.flops_saved"]); pred < 0.5*meas || pred > 2*meas {
				t.Errorf("predicted FLOP saving %g far from measured %g", pred, meas)
			}
		})
	}
}

// Rewriting is memoized per program pointer: a second run of the same
// *expr.Program must not re-run the pass, Reset clears the memo, a
// Placement taken before it carries the form to the next session, and
// SetRewriter clears the memo.
func TestEngineRewriteCacheReuse(t *testing.T) {
	const bs = 5
	reg := obs.NewRegistry()
	e := New(DMac, dist.Config{Workers: 2, LocalParallelism: 2}, bs)
	e.SetObserver(nil, reg)
	e.SetRewriter(rewrite.New())
	bindRewriteLeaves(t, e, bs)

	p := rewriteWorkload()
	if _, err := e.Run(p, nil); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["rewrite.programs"]; got != 1 {
		t.Fatalf("rewrite.programs = %d after first run, want 1", got)
	}
	if _, ok := e.forms[p]; !ok {
		t.Fatal("rewrite result not memoized")
	}
	if _, err := e.Run(p, nil); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["rewrite.programs"]; got != 1 {
		t.Fatalf("rewrite.programs = %d after second run, want 1 (memoized)", got)
	}
	pl := e.Placement()
	e.Reset()
	if len(e.forms) != 0 {
		t.Fatal("Reset did not clear the rewrite memo")
	}
	bindRewriteLeaves(t, e, bs)
	e.Place(pl)
	if _, err := e.Run(p, nil); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["rewrite.programs"]; got != 1 {
		t.Fatalf("rewrite.programs = %d after a placed run past Reset, want 1 (memoized)", got)
	}
	e.SetRewriter(nil)
	if e.Rewriter() != nil {
		t.Fatal("SetRewriter(nil) did not detach")
	}
	bindRewriteLeaves(t, e, bs)
	e.Place(pl) // made under another rewriter: not taken back
	if _, err := e.Run(p, nil); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["rewrite.programs"]; got != 1 {
		t.Fatalf("detached engine still rewrote: rewrite.programs = %d", got)
	}
	if f := e.forms[p]; f == nil || f.prog != p {
		t.Fatal("a detached engine runs a form made under the rewriter")
	}
}

// Reset pins no program: one its caller drops after Reset is collected,
// rewrite and plan cache entries notwithstanding.
func TestFormsMemoCollectsDroppedProgram(t *testing.T) {
	const bs = 5
	e := New(DMac, dist.Config{Workers: 2, LocalParallelism: 2}, bs)
	e.SetRewriter(rewrite.New())
	bindRewriteLeaves(t, e, bs)
	p := rewriteWorkload()
	collected := make(chan struct{})
	runtime.SetFinalizer(p, func(*expr.Program) { close(collected) })
	if _, err := e.Run(p, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.forms[p]; !ok {
		t.Fatal("rewrite result not memoized")
	}
	e.Reset()
	p = nil
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(e)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the program outlives every reference its caller held")
}

// The Local planner goes through the same rewrite path.
func TestLocalPlannerUsesRewriter(t *testing.T) {
	const bs = 5
	reg := obs.NewRegistry()
	e := New(Local, dist.Config{Workers: 1, LocalParallelism: 1}, bs)
	e.SetObserver(nil, reg)
	e.SetRewriter(rewrite.New())
	bindRewriteLeaves(t, e, bs)
	if _, err := e.Run(rewriteWorkload(), nil); err != nil {
		t.Fatal(err)
	}
	if reg.Snapshot().Counters["rewrite.programs"] == 0 {
		t.Error("Local planner bypassed the rewrite pass")
	}
	if _, ok := e.Grid("pushdown"); !ok {
		t.Error("output missing after rewritten local run")
	}
}
