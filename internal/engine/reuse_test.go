package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/rewrite"
)

// TestEngineReuseAcrossJobs is the engine-reuse regression test: a session
// that ran one job, was Reset, and was re-bound for an unrelated job must
// behave exactly like a fresh engine — no stale variables, scalars, plans or
// base context may leak from the first job into the second.
func TestEngineReuseAcrossJobs(t *testing.T) {
	reused := New(DMac, testConfig(), tBS)
	bindGNMF(t, reused)
	prog := gnmfProgram(0.3)
	if _, err := reused.Run(prog, nil); err != nil {
		t.Fatal(err)
	}
	// Poison the session with everything a sloppy pool would leak: a scalar,
	// a cancelled base context, and the plan cache warmed.
	reused.SetScalar("leak", 123)
	poisoned, cancel := context.WithCancel(context.Background())
	cancel()
	reused.SetBaseContext(poisoned)

	reused.Reset()

	if _, ok := reused.Scalar("leak"); ok {
		t.Error("Reset kept a driver scalar from the previous job")
	}
	if _, ok := reused.Grid("W"); ok {
		t.Error("Reset kept a session variable from the previous job")
	}
	if hits, misses := reused.PlanCacheStats(); hits+misses == 0 {
		t.Error("plan cache counters should survive Reset (they are engine stats, not session state)")
	}

	// Job two: different data under the same names. The reused engine must
	// agree bit-for-bit with a fresh engine running only job two — and must
	// not observe the poisoned base context.
	fresh := New(DMac, testConfig(), tBS)
	rng1, rng2 := rand.New(rand.NewSource(99)), rand.New(rand.NewSource(99))
	for _, b := range []struct {
		e   *Engine
		rng *rand.Rand
	}{{reused, rng1}, {fresh, rng2}} {
		v := randSparseGrid(b.rng, tRows, tCols, tBS, 0.2)
		w := randDenseGrid(b.rng, tRows, tK, tBS)
		h := randDenseGrid(b.rng, tK, tCols, tBS)
		for name, g := range map[string]*matrix.Grid{"V": v, "W": w, "H": h} {
			if err := b.e.Bind(name, g); err != nil {
				t.Fatal(err)
			}
		}
	}
	prog2 := gnmfProgram(0.2)
	for i := 0; i < 2; i++ {
		if _, err := reused.Run(prog2, nil); err != nil {
			t.Fatalf("reused engine after Reset: %v", err)
		}
		if _, err := fresh.Run(prog2, nil); err != nil {
			t.Fatalf("fresh engine: %v", err)
		}
	}
	for _, name := range []string{"W", "H"} {
		got, ok1 := reused.Grid(name)
		want, ok2 := fresh.Grid(name)
		if !ok1 || !ok2 || !matrix.GridEqual(got, want, 0) {
			t.Errorf("%s diverged between reused and fresh engine", name)
		}
	}
}

// TestBindAdoptsBlockSize: a bind into an empty session — after New, and
// again after Reset — makes the grid's block size the session's, a later bind
// at another size is refused, and the run is bit-identical to an engine
// built at that size.
func TestBindAdoptsBlockSize(t *testing.T) {
	e := New(DMac, testConfig(), tBS)
	for i, bs := range []int{tBS + 2, tBS - 3} {
		if i > 0 {
			e.Reset()
		}
		fresh := New(DMac, testConfig(), bs)
		for _, eng := range []*Engine{e, fresh} {
			rng := rand.New(rand.NewSource(int64(bs)))
			for _, in := range []struct {
				name string
				g    *matrix.Grid
			}{
				{"V", randSparseGrid(rng, tRows, tCols, bs, 0.2)},
				{"W", randDenseGrid(rng, tRows, tK, bs)},
				{"H", randDenseGrid(rng, tK, tCols, bs)},
			} {
				if err := eng.Bind(in.name, in.g); err != nil {
					t.Fatalf("block %d: bind %s: %v", bs, in.name, err)
				}
			}
		}
		if e.BlockSize() != bs {
			t.Errorf("session block size %d after binding block-%d grids, want %d", e.BlockSize(), bs, bs)
		}
		if err := e.Bind("X", matrix.NewDenseGrid(tK, tK, bs+1)); err == nil {
			t.Errorf("block %d session accepted a block-%d grid", bs, bs+1)
		}
		prog := gnmfProgram(0.2)
		for _, eng := range []*Engine{e, fresh} {
			if _, err := eng.Run(prog, nil); err != nil {
				t.Fatalf("block %d: %v", bs, err)
			}
		}
		for _, name := range []string{"W", "H"} {
			got, _ := e.Grid(name)
			want, _ := fresh.Grid(name)
			if !matrix.GridEqual(got, want, 0) {
				t.Errorf("block %d: %s diverged from an engine built at that size", bs, name)
			}
		}
	}
}

// TestSharedPlanCacheAcrossEngines checks the cross-engine plan cache: a
// second engine submitting a structurally identical but freshly built program
// reuses the first engine's plan (no regeneration) and still computes
// bit-identical results.
func TestSharedPlanCacheAcrossEngines(t *testing.T) {
	shared := NewPlanCache(16)
	run := func(e *Engine) {
		t.Helper()
		bindGNMF(t, e)
		if _, err := e.Run(gnmfProgram(0.3), nil); err != nil {
			t.Fatal(err)
		}
	}
	e1 := New(DMac, testConfig(), tBS)
	e1.SetSharedPlanCache(shared)
	run(e1)
	if _, misses, _ := shared.Stats(); misses == 0 {
		t.Fatal("first engine should miss the shared cache")
	}

	e2 := New(DMac, testConfig(), tBS)
	e2.SetSharedPlanCache(shared)
	run(e2)
	hits, _, entries := shared.Stats()
	if hits == 0 {
		t.Error("second engine should hit the shared cache for an identical program")
	}
	if entries == 0 {
		t.Error("shared cache should hold entries")
	}
	if h2, m2 := e2.PlanCacheStats(); h2 == 0 || m2 != 0 {
		t.Errorf("second engine PlanCacheStats = (%d, %d), want shared hit and no regeneration", h2, m2)
	}

	// Differential: shared-plan execution matches an isolated engine.
	solo := New(DMac, testConfig(), tBS)
	run(solo)
	for _, name := range []string{"W", "H"} {
		got, ok1 := e2.Grid(name)
		want, ok2 := solo.Grid(name)
		if !ok1 || !ok2 || !matrix.GridEqual(got, want, 0) {
			t.Errorf("%s diverged under the shared plan cache", name)
		}
	}
}

// TestSharedPlanCacheKeepsPlannersApart: a DMac, a SystemML-S and a Local
// engine that share one PlanCache each run their own planner's plan on GNMF —
// the same program against the same session schemes — so each moves and
// computes exactly what an engine with a private cache of the same planner
// does.
func TestSharedPlanCacheKeepsPlannersApart(t *testing.T) {
	run := func(planner Planner, pc *PlanCache) Metrics {
		t.Helper()
		e := New(planner, testConfig(), tBS)
		if pc != nil {
			e.SetSharedPlanCache(pc)
		}
		bindGNMF(t, e)
		var total Metrics
		for i := 0; i < 2; i++ {
			m, err := e.Run(gnmfProgram(0.3), nil)
			if err != nil {
				t.Fatalf("%s: %v", planner, err)
			}
			total.Add(m)
		}
		return total
	}
	shared := NewPlanCache(16)
	for _, planner := range []Planner{DMac, SystemMLS, Local} {
		got, want := run(planner, shared), run(planner, nil)
		if got.CommBytes != want.CommBytes || got.FLOPs != want.FLOPs {
			t.Errorf("%s under a shared cache moved %d B and %g FLOPs, its own plan %d B and %g FLOPs",
				planner, got.CommBytes, got.FLOPs, want.CommBytes, want.FLOPs)
		}
	}
}

// TestProgramSignatureDiscriminates pins the signature's sensitivity: a
// rebuilt identical program shares it, while changed shapes, constants or
// assignment names do not.
func TestProgramSignatureDiscriminates(t *testing.T) {
	base := ProgramSignature(gnmfProgram(0.3))
	if got := ProgramSignature(gnmfProgram(0.3)); got != base {
		t.Error("identical rebuild changed the signature")
	}
	if got := ProgramSignature(gnmfProgram(0.5)); got == base {
		t.Error("sparsity change kept the signature")
	}
}

// cancelAt is a context cancelled at its n-th Err call: a cancel that lands
// at a fixed point of a run instead of racing it. Err may be called from the
// executor's workers, hence the atomic count.
type cancelAt struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func (c *cancelAt) Err() error {
	if c.calls.Add(1) < c.n {
		return nil
	}
	return context.Canceled
}

// TestRunCtxCancelSurfacesCanceled covers cancellation propagation: a job
// cancelled while its multi-stage program runs must fail with an error that
// wraps context.Canceled, not a bare stage failure — that is how callers
// (the serve job service) distinguish a cancel from a genuine fault.
func TestRunCtxCancelSurfacesCanceled(t *testing.T) {
	e := New(DMac, testConfig(), tBS)
	bindGNMF(t, e)
	prog := gnmfProgram(0.3)
	// The engine asks once before each of GNMF's five stages, so the third
	// call falls mid-run whatever the executor asks in between.
	ctx := &cancelAt{Context: context.Background(), n: 3}
	_, err := e.RunCtx(ctx, prog, nil)
	if err == nil {
		t.Fatal("run never observed the cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want an error wrapping context.Canceled", err)
	}

	// An already-expired deadline surfaces the same way.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := e.RunCtx(dctx, prog, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline returned %v, want context.DeadlineExceeded", err)
	}
}

// TestGrownProgramRunsAsItStands: a program extended after it has run is
// planned and run as it now stands, on DMac and Local, with and without the
// rewriter. GNMF runs twice; an assignment appended then is made by the
// third run, and one that reads a variable the program never read before by
// the fourth.
func TestGrownProgramRunsAsItStands(t *testing.T) {
	for _, planner := range []Planner{DMac, Local} {
		for _, rw := range []bool{false, true} {
			label := fmt.Sprintf("%s rewrite=%v", planner, rw)
			e := New(planner, testConfig(), tBS)
			if rw {
				e.SetRewriter(rewrite.New())
			}
			bindGNMF(t, e)
			p := gnmfProgram(0.3)
			run := func() {
				if _, err := e.Run(p, nil); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			run()
			run()
			var W expr.Ref
			for _, n := range p.Nodes() {
				if n.Kind == expr.KindVar && n.Name == "W" {
					W = expr.Ref{Node: n}
				}
			}
			p.Assign("Z", p.Scalar(matrix.ScalarMul, W, 2))
			w := peek(t, e, "W")
			run()
			z, ok := e.varGrid("Z")
			if !ok {
				t.Fatalf("%s: the assignment appended after two runs was not made", label)
			}
			if !sameBits(z, matrix.ScalarGrid(matrix.ScalarMul, w, 2)) {
				t.Errorf("%s: Z is not 2·W", label)
			}

			u := randDenseGrid(rand.New(rand.NewSource(8)), tRows, tK, tBS)
			if err := e.Bind("U", u); err != nil {
				t.Fatal(err)
			}
			p.Assign("Y", p.Add(p.Var("U", tRows, tK, 1), W))
			w = peek(t, e, "W")
			run()
			y, ok := e.varGrid("Y")
			if !ok {
				t.Fatalf("%s: the assignment reading a new variable was not made", label)
			}
			want, err := matrix.CellwiseGrid(matrix.OpAdd, u, w)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(y, want) {
				t.Errorf("%s: Y is not U + W", label)
			}
		}
	}
}
