package engine

import (
	"math"
	"testing"

	"dmac/internal/dep"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/workload"
)

// placementJob reads two bound inputs: it multiplies them, which places one
// of them, and assigns T a lazy transpose view of A's grid.
func placementJob(n int) *expr.Program {
	p := expr.NewProgram()
	a, b := p.Var("A", n, n, 1), p.Var("B", n, n, 1)
	p.Assign("T", a.T())
	p.Assign("Z", p.Mul(a, b))
	return p
}

func bindAll(t *testing.T, e *Engine, inputs map[string]*matrix.Grid) {
	t.Helper()
	for name, g := range inputs {
		if err := e.Bind(name, g); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlacementHoldsNoRealizedView: a job leaves T, a lazy view sharing A's
// grid, and Grid realizes it in place. The placement then taken holds only
// untransposed instances of the bound grids themselves, no block of a pool.
// The pool is then filled with NaN blocks of the job's block shape and the
// job runs again from the placement: its results keep a fresh engine's bits
// and the bound grids theirs.
func TestPlacementHoldsNoRealizedView(t *testing.T) {
	const n, bs = 16, 4
	inputs := map[string]*matrix.Grid{
		"A": workload.DenseRandom(1, n, n, bs),
		"B": workload.DenseRandom(2, n, n, bs),
	}
	kept := map[string]*matrix.Grid{"A": inputs["A"].Clone(), "B": inputs["B"].Clone()}
	prog := placementJob(n)

	fresh := New(DMac, testConfig(), bs)
	bindAll(t, fresh, inputs)
	if _, err := fresh.Run(prog, nil); err != nil {
		t.Fatal(err)
	}
	want := map[string]*matrix.Grid{"T": mustGrid(t, fresh, "T"), "Z": mustGrid(t, fresh, "Z")}

	e := New(DMac, testConfig(), bs)
	bindAll(t, e, inputs)
	if _, err := e.Run(prog, nil); err != nil {
		t.Fatal(err)
	}
	lazy := false
	for _, inst := range e.vars["T"].instances {
		lazy = lazy || (inst.Trans() && inst.Grid == inputs["A"])
	}
	if !lazy {
		t.Fatal("T is not a lazy view of A's grid")
	}
	mustGrid(t, e, "T")
	p := e.Placement()
	if len(p.placed) == 0 {
		t.Fatal("the job placed none of its inputs")
	}
	for _, pi := range p.placed {
		if pi.inst.Grid != inputs[pi.name] || pi.inst.Trans() || pi.inst.Scheme == dep.SchemeNone {
			t.Errorf("the placement holds %s(%s), trans %v, on a grid other than its bound one",
				pi.name, pi.inst.Scheme, pi.inst.Trans())
		}
	}

	// Poison the pool: a run whose every result block is NaN, then a Reset
	// that returns them all to the free list.
	e.Reset()
	nan := make([]float64, n*n)
	for i := range nan {
		nan[i] = math.NaN()
	}
	bindAll(t, e, map[string]*matrix.Grid{"A": matrix.FromDense(n, n, bs, nan), "B": matrix.FromDense(n, n, bs, nan)})
	if _, err := e.Run(prog, nil); err != nil {
		t.Fatal(err)
	}
	e.Reset()
	if e.pool.Bytes() == 0 {
		t.Fatal("the pool holds no blocks to poison the next job with")
	}

	bindAll(t, e, inputs)
	if got := e.Place(p); got != len(p.placed) {
		t.Fatalf("restored %d of the placement's %d instances", got, len(p.placed))
	}
	if _, err := e.Run(prog, nil); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if d := matrix.BitDiff(mustGrid(t, e, name), w); d != "" {
			t.Errorf("%s after the placement differs from a fresh engine's at %s", name, d)
		}
	}
	for name, g := range kept {
		if d := matrix.BitDiff(inputs[name], g); d != "" {
			t.Errorf("bound input %s changed at %s", name, d)
		}
	}
}

// TestPlaceRestoresOnlyWhatItRecorded: a placement goes back only into a
// session bound to the very grids it recorded, only while no worker has been
// lost since, and never for a variable a run has assigned.
func TestPlaceRestoresOnlyWhatItRecorded(t *testing.T) {
	const n, bs = 16, 4
	inputs := map[string]*matrix.Grid{
		"A": workload.DenseRandom(1, n, n, bs),
		"B": workload.DenseRandom(2, n, n, bs),
	}
	prog := placementJob(n)
	e := New(DMac, testConfig(), bs)
	bindAll(t, e, inputs)
	if _, err := e.Run(prog, nil); err != nil {
		t.Fatal(err)
	}
	p := e.Placement()
	if len(p.placed) == 0 {
		t.Fatal("the job placed none of its inputs")
	}

	e.Reset()
	bindAll(t, e, map[string]*matrix.Grid{"A": inputs["A"].Clone(), "B": inputs["B"].Clone()})
	if got := e.Place(p); got != 0 {
		t.Errorf("restored %d instances into a session bound to copies of the grids", got)
	}

	e.Reset()
	bindAll(t, e, inputs)
	if got := e.Place(p); got != len(p.placed) {
		t.Errorf("restored %d of %d instances into a session bound to the same grids", got, len(p.placed))
	}
	if got := e.Place(p); got != 0 {
		t.Errorf("restoring twice restored %d more instances", got)
	}

	// A variable a run assigns leaves its bound grid behind.
	assign := expr.NewProgram()
	assign.Assign("A", assign.Mul(assign.Var("A", n, n, 1), assign.Var("B", n, n, 1)))
	if _, err := e.Run(assign, nil); err != nil {
		t.Fatal(err)
	}
	for _, pi := range e.Placement().placed {
		if pi.name == "A" {
			t.Errorf("the placement holds A(%s) after a run assigned A", pi.inst.Scheme)
		}
	}

	e.Reset()
	bindAll(t, e, inputs)
	if !e.Cluster().KillWorker(1) {
		t.Fatal("worker 1 was not killed")
	}
	if got := e.Place(p); got != 0 {
		t.Errorf("restored %d instances placed before a worker was lost", got)
	}
}
