package engine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"dmac/internal/core"
	"dmac/internal/dist"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/obs"
	"dmac/internal/rewrite"
)

// The tests in this file cover the fused cell-wise operator where it meets
// the engine's own contracts: the plan's licence to write a result in place,
// stage retry, and the background snapshot writer.

// inPlaceOps returns the plan's operators licensed to overwrite an input.
func inPlaceOps(plan *core.Plan) []*core.Op {
	var ops []*core.Op
	for _, op := range plan.Ops {
		if op.InPlace >= 0 {
			ops = append(ops, op)
		}
	}
	return ops
}

// fusedGNMF is a DMac engine with GNMF bound and the rewriter attached, and
// the plan of its first iteration.
func fusedGNMF(t *testing.T, cfg dist.Config) (*Engine, *core.Plan) {
	t.Helper()
	e := New(DMac, cfg, tBS)
	bindGNMF(t, e)
	e.SetRewriter(rewrite.New())
	plan, err := e.Plan(gnmfProgram(0.3))
	if err != nil {
		t.Fatal(err)
	}
	return e, plan
}

// TestInPlaceLicence builds, by hand, one program per condition of the
// licence and checks the plan grants it only when all hold — and that the run
// never shows the difference: every output, including a product the program
// also assigns or reads again, is bit for bit the Local engine's.
func TestInPlaceLicence(t *testing.T) {
	const n, bs = 12, 4
	type build func(p *expr.Program, a, b, c expr.Ref) (cell expr.Ref)
	cases := []struct {
		name  string
		build build
		want  int // the licensed input of the cell-wise operator, -1 for none
	}{
		{"product read once", func(p *expr.Program, a, b, c expr.Ref) expr.Ref {
			return p.CellMul(c, p.Mul(a, b))
		}, 1},
		{"assigned", func(p *expr.Program, a, b, c expr.Ref) expr.Ref {
			prod := p.Mul(a, b)
			p.Assign("P", prod)
			return p.CellMul(prod, c)
		}, -1},
		{"read by another operator", func(p *expr.Program, a, b, c expr.Ref) expr.Ref {
			prod := p.Mul(a, b)
			p.Sum("s", prod)
			return p.CellMul(prod, c)
		}, -1},
		{"read twice by the operator", func(p *expr.Program, a, b, c expr.Ref) expr.Ref {
			prod := p.Mul(a, b)
			return p.CellMul(prod, prod)
		}, -1},
		{"read transposed", func(p *expr.Program, a, b, c expr.Ref) expr.Ref {
			return p.CellMul(p.Mul(a, b).T(), c)
		}, -1},
		{"produced in an earlier stage", func(p *expr.Program, a, b, c expr.Ref) expr.Ref {
			early := p.Mul(a, b)
			late := p.Mul(p.Mul(a, c), b) // a second product, a stage behind
			p.Assign("L", late)
			return p.CellMul(early, late)
		}, -1},
	}
	rng := rand.New(rand.NewSource(77))
	data := map[string]*matrix.Grid{
		"A": randDenseGrid(rng, n, n, bs), "B": randDenseGrid(rng, n, n, bs), "C": randDenseGrid(rng, n, n, bs),
	}
	for _, tc := range cases {
		p := expr.NewProgram()
		cell := tc.build(p, p.Var("A", n, n, 1), p.Var("B", n, n, 1), p.Var("C", n, n, 1))
		p.Assign("Y", cell)

		e, ref := New(DMac, testConfig(), bs), New(Local, testConfig(), bs)
		for name, g := range data {
			if err := e.Bind(name, g.Clone()); err != nil {
				t.Fatal(err)
			}
			if err := ref.Bind(name, g.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		plan, err := e.Plan(p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, op := range plan.Ops {
			if op.Kind != core.OpCompute || op.Node != cell.Node {
				continue
			}
			if op.InPlace != tc.want {
				t.Errorf("%s: the plan licenses input %d, want %d\n%s", tc.name, op.InPlace, tc.want, plan)
			}
			if tc.name == "produced in an earlier stage" {
				from := plan.Ops[0]
				for _, o := range plan.Ops {
					if o.Output == op.Inputs[0] {
						from = o
					}
				}
				if from.Node == nil || from.Node.Kind != expr.KindMul || from.Stage >= op.Stage {
					t.Errorf("%s: input 0 comes from %s at stage %d, the operator runs at %d: the case tests nothing\n%s",
						tc.name, from.Kind, from.Stage, op.Stage, plan)
				}
			}
		}
		if _, err := e.Run(p, nil); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := ref.Run(p, nil); err != nil {
			t.Fatalf("%s on Local: %v", tc.name, err)
		}
		for _, a := range p.Assignments() {
			if diff := matrix.BitDiff(mustGrid(t, e, a.Name), mustGrid(t, ref, a.Name)); diff != "" {
				t.Errorf("%s: %s differs from the Local engine's: %s", tc.name, a.Name, diff)
			}
		}
		if s, ok := ref.Scalar("s"); ok {
			if got, _ := e.Scalar("s"); math.Float64bits(got) != math.Float64bits(s) {
				t.Errorf("%s: sum of the product = %v, Local %v", tc.name, got, s)
			}
		}
	}
}

// TestFusedGNMFPlan pins what fusion makes of a GNMF iteration: two fused
// operators, the H update licensed to overwrite WᵀW·H — a product of its own
// stage — and both marked in the plan's rendering and the operator spans.
func TestFusedGNMFPlan(t *testing.T) {
	e, plan := fusedGNMF(t, testConfig())
	licensed := inPlaceOps(plan)
	if len(licensed) != 2 {
		t.Fatalf("%d operators write in place, want both updates\n%s", len(licensed), plan)
	}
	for _, op := range licensed {
		if op.Node.Kind != expr.KindFused || len(op.Inputs) != 3 {
			t.Errorf("in-place operator %s over %d inputs, want a fused update over 3", op.Node.Label(), len(op.Inputs))
		}
	}
	if !strings.Contains(plan.String(), "[in-place m") || !strings.Contains(plan.DOT(), "in-place m") {
		t.Errorf("the licence is missing from the rendered plan:\n%s", plan)
	}
	tr := obs.NewTracer()
	e.SetObserver(tr, nil)
	if _, err := e.Run(gnmfProgram(0.3), nil); err != nil {
		t.Fatal(err)
	}
	var fused int
	for _, s := range tr.Spans() {
		if links, ok := s.Attr("links"); ok && s.Cat == "op" && links.Int == 2 {
			fused++
			if in, _ := s.Attr("in_place"); in.Int != 1 {
				t.Errorf("span %q: in_place = %d, want 1", s.Name, in.Int)
			}
		}
	}
	if fused != 2 {
		t.Errorf("%d operator spans carry links=2, want the two updates", fused)
	}
}

// TestInPlaceWriteSurvivesRetries kills a worker at every stage of a fused
// GNMF iteration, at the boundary and mid-stage (the kill surfaces from the
// stage's first operator that can fail). The stage of an in-place write
// retries by running its multiplication again; the stages after it retry over
// the blocks it wrote. That iteration and one more on the survivors must end
// on the bits of a fault-free run without the rewriter.
func TestInPlaceWriteSurvivesRetries(t *testing.T) {
	plain := New(DMac, testConfig(), tBS)
	bindGNMF(t, plain)
	for i := 0; i < 2; i++ {
		if _, err := plain.Run(gnmfProgram(0.3), nil); err != nil {
			t.Fatal(err)
		}
	}
	_, plan := fusedGNMF(t, testConfig())
	for stage := 1; stage <= plan.Stages; stage++ {
		for _, kind := range []dist.FaultKind{dist.FaultKillBoundary, dist.FaultKillTask} {
			cfg := testConfig()
			cfg.Faults = dist.FaultPlan{Events: []dist.FaultEvent{{Stage: stage, Worker: 1, Attempt: 0, Kind: kind}}}
			e, _ := fusedGNMF(t, cfg)
			prog := gnmfProgram(0.3)
			var retries int
			for i := 0; i < 2; i++ {
				m, err := e.Run(prog, nil)
				if err != nil {
					t.Fatalf("stage %d %s: %v", stage, kind, err)
				}
				retries += m.Retries
			}
			if retries == 0 {
				t.Errorf("stage %d %s: no stage was retried", stage, kind)
			}
			for _, name := range []string{"W", "H"} {
				if diff := matrix.BitDiff(mustGrid(t, e, name), mustGrid(t, plain, name)); diff != "" {
					t.Errorf("stage %d %s: %s differs from the fault-free unfused run: %s", stage, kind, name, diff)
				}
			}
		}
	}
}

// TestFusedOperatorConsumesTaskKill: a mid-stage kill surfaces from the first
// operator of the stage that can fail. An operator writing in place never is
// that one — the multiplication it overwrites runs before it — so the case is
// a fused operator over session values: on the second run its inputs are
// cached with their schemes and it opens the stage. (A stage arms one kill an
// attempt and skips dead workers, so the first of the two scripted kills ends
// the first run's leaf-only stage 1 and the second is the one under test.)
func TestFusedOperatorConsumesTaskKill(t *testing.T) {
	const n, bs = 12, 4
	p := expr.NewProgram()
	a, b, c := p.Var("A", n, n, 1), p.Var("B", n, n, 1), p.Var("C", n, n, 1)
	p.Assign("Y", p.CellDiv(p.CellMul(a, b), p.Scalar(matrix.ScalarAdd, c, 1)))

	run := func(faults dist.FaultPlan) (*Engine, *obs.Tracer) {
		cfg := testConfig()
		cfg.Faults = faults
		e := New(DMac, cfg, bs)
		e.SetRewriter(rewrite.New())
		rng := rand.New(rand.NewSource(78))
		for _, name := range []string{"A", "B", "C"} {
			if err := e.Bind(name, randDenseGrid(rng, n, n, bs)); err != nil {
				t.Fatal(err)
			}
		}
		tr := obs.NewTracer()
		e.SetObserver(tr, nil)
		for i := 0; i < 2; i++ {
			if _, err := e.Run(p, nil); err != nil {
				t.Fatal(err)
			}
		}
		return e, tr
	}
	want, _ := run(dist.FaultPlan{})
	got, tr := run(dist.FaultPlan{Events: []dist.FaultEvent{
		{Stage: 1, Worker: 2, Attempt: 0, Kind: dist.FaultKillTask},
		{Stage: 1, Worker: 3, Attempt: 0, Kind: dist.FaultKillTask},
	}})
	var consumed bool
	for _, s := range tr.Spans() {
		links, fused := s.Attr("links")
		if _, failed := s.Attr("error"); s.Cat == "op" && fused && links.Int == 3 && failed {
			consumed = true
		}
	}
	if !consumed {
		t.Error("no fused operator span carries the kill")
	}
	if diff := matrix.BitDiff(mustGrid(t, got, "Y"), mustGrid(t, want, "Y")); diff != "" {
		t.Errorf("Y after the retry differs from the fault-free run: %s", diff)
	}
}

// TestSnapshotHeldAcrossInPlaceWrite is DESIGN.md §11's contract with its one
// exception, checked: the snapshot taken right before the stage of the
// in-place write is held unwritten while that stage runs, and what it then
// puts on disk is, byte for byte, what an unhindered run writes — the write
// touched nothing a snapshot can reach. The results are the unfused run's.
// The cluster's arithmetic is priced so slow that no snapshot derives a
// value: every grid the snapshots hold is on disk for the comparison.
func TestSnapshotHeldAcrossInPlaceWrite(t *testing.T) {
	cfg := testConfig()
	cfg.FlopsPerSecPerThread = 1
	_, plan := fusedGNMF(t, cfg)
	licensed := inPlaceOps(plan)
	if len(licensed) == 0 {
		t.Fatalf("the fused GNMF plan writes nothing in place\n%s", plan)
	}
	stage := licensed[0].Stage
	snapshots := func(hold bool) (map[string][]byte, *Engine) {
		e, _ := fusedGNMF(t, cfg)
		dir := t.TempDir()
		if err := e.SetCheckpoint(dir, CheckpointPolicy{Interval: 1}); err != nil {
			t.Fatal(err)
		}
		var heldUntilAfter bool
		if hold {
			holdSnapshot(e.ckpt, stage-1)
			release := e.ckpt.testPreWait
			e.ckpt.testPreWait = func(waitingFor int) {
				// The first wait for the held snapshot comes with the next
				// one, after the stage in between has run.
				heldUntilAfter = heldUntilAfter || waitingFor == stage-1
				release(waitingFor)
			}
		}
		if _, err := e.Run(gnmfProgram(0.3), nil); err != nil {
			t.Fatal(err)
		}
		if hold && !heldUntilAfter {
			t.Fatalf("the snapshot after stage %d was never waited for", stage-1)
		}
		files := map[string][]byte{}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			blob, err := os.ReadFile(path)
			rel, _ := filepath.Rel(dir, path)
			files[rel] = blob
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files, e
	}
	want, _ := snapshots(false)
	got, e := snapshots(true)
	if len(got) != len(want) {
		t.Errorf("%d snapshot files with the write held, %d without", len(got), len(want))
	}
	heldDir := fmt.Sprintf("-stage%d", stage-1)
	var compared int
	for name, blob := range want {
		if !bytes.Equal(got[name], blob) {
			t.Errorf("%s differs from the unhindered run's", name)
		}
		if strings.Contains(filepath.Dir(name), heldDir) {
			compared++
		}
	}
	if compared < 2 {
		t.Errorf("the held snapshot holds %d files: it needs a manifest and a grid to say anything", compared)
	}
	plain := New(DMac, testConfig(), tBS)
	bindGNMF(t, plain)
	if _, err := plain.Run(gnmfProgram(0.3), nil); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"W", "H"} {
		if diff := matrix.BitDiff(mustGrid(t, e, name), mustGrid(t, plain, name)); diff != "" {
			t.Errorf("%s differs from the unfused run without checkpoints: %s", name, diff)
		}
	}
}

// TestGNMFIterationAllocBudget keeps the fourth grid from growing back. A
// warm, fused GNMF iteration allocates two H-sized grids — the products WᵀV
// and WᵀW·H, the second of which becomes the new H — and W-sized and k x k
// ones beside them; unfused it allocated four. The budget per iteration is
// 2.3 H grids plus 192 KB; the run measures two H grids plus 220-260 KB of
// what does not scale with H — the W-sized results, block headers over 128
// blocks an H grid, the executor's task queues.
func TestGNMFIterationAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool: the evaluator's scratch is allocated per block")
	}
	const (
		rows, cols, k, bs = 64, 8192, 16, 64
		iters             = 5
		hBytes            = k * cols * 8
		budget            = iters * (23*hBytes/10 + 192<<10)
	)
	rng := rand.New(rand.NewSource(79))
	e := New(DMac, dist.ScaledConfig(4, 2), bs)
	e.SetRewriter(rewrite.New())
	for name, g := range map[string]*matrix.Grid{
		"V": randSparseGrid(rng, rows, cols, bs, 0.05),
		"W": randDenseGrid(rng, rows, k, bs),
		"H": randDenseGrid(rng, k, cols, bs),
	} {
		if err := e.Bind(name, g); err != nil {
			t.Fatal(err)
		}
	}
	p := expr.NewProgram()
	{
		V, W, H := p.Var("V", rows, cols, 0.05), p.Var("W", rows, k, 1), p.Var("H", k, cols, 1)
		newH := p.CellDiv(p.CellMul(H, p.Mul(W.T(), V)), p.Mul(p.Mul(W.T(), W), H))
		newW := p.CellDiv(p.CellMul(W, p.Mul(V, newH.T())), p.Mul(W, p.Mul(newH, newH.T())))
		p.Assign("H", newH)
		p.Assign("W", newW)
	}
	for i := 0; i < 3; i++ { // the session's schemes settle after two
		if _, err := e.Run(p, nil); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		if _, err := e.Run(p, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("two H grids + %d KB an iteration", (int(got)/iters-2*hBytes)>>10)
	if got > budget {
		t.Errorf("%d warm iterations allocated %d bytes (%.2f H grids each), budget %d (2.3 H grids + 192 KB each)",
			iters, got, float64(got)/iters/hBytes, budget)
	}
}
