package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dmac/internal/dist"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/rewrite"
)

// The shapes of the overwrite tests: S = A %*% B with A oM x oK and B oK x
// oN, cut at oBS (ragged edges included).
const (
	oM, oK, oN = 24, 20, 30
	oBS        = 8
)

// eachOverwriteEngine runs f under every planner with the rewrite pass off
// and on; mk makes a fresh engine of that kind.
func eachOverwriteEngine(t *testing.T, f func(t *testing.T, mk func() *Engine)) {
	for _, planner := range []Planner{DMac, SystemMLS, Local} {
		for _, rw := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/rewrite=%v", planner, rw), func(t *testing.T) {
				f(t, func() *Engine {
					e := New(planner, testConfig(), oBS)
					if rw {
						e.SetRewriter(rewrite.New())
					}
					return e
				})
			})
		}
	}
}

// mmProgram is dense_mm's program, S = A %*% B: it assigns S and reads it
// nowhere.
func mmProgram() *expr.Program {
	p := expr.NewProgram()
	p.Assign("S", p.Mul(p.Var("A", oM, oK, 1), p.Var("B", oK, oN, 1)))
	return p
}

// bindMM binds A and B drawn from seed.
func bindMM(t *testing.T, e *Engine, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for name, g := range map[string]*matrix.Grid{
		"A": randDenseGrid(rng, oM, oK, oBS),
		"B": randDenseGrid(rng, oK, oN, oBS),
	} {
		if err := e.Bind(name, g); err != nil {
			t.Fatal(err)
		}
	}
}

// mustRun runs p on e and fails the test on an error.
func mustRun(t *testing.T, e *Engine, p *expr.Program) {
	t.Helper()
	if _, err := e.Run(p, nil); err != nil {
		t.Fatal(err)
	}
}

// varBytes is the bytes of the distinct dense blocks of every instance of a
// session variable.
func varBytes(e *Engine, name string) int64 {
	seen := map[*matrix.DenseBlock]bool{}
	var n int64
	for _, inst := range e.vars[name].instances {
		g := inst.Grid
		for bi := 0; bi < g.BlockRows(); bi++ {
			for bj := 0; bj < g.BlockCols(); bj++ {
				if d, ok := g.Block(bi, bj).(*matrix.DenseBlock); ok && !seen[d] {
					seen[d] = true
					n += d.MemBytes()
				}
			}
		}
	}
	return n
}

// TestOverwriteTakesTheOldValuesBlocks: a run of S = A %*% B drops the S it
// overwrites before its stages run, so its result blocks are the old value's
// and the pool holds one S, not two, on every run — with the bits of a fresh
// engine's run.
func TestOverwriteTakesTheOldValuesBlocks(t *testing.T) {
	eachOverwriteEngine(t, func(t *testing.T, mk func() *Engine) {
		fresh := mk()
		bindMM(t, fresh, 1)
		mustRun(t, fresh, mmProgram())
		want := peek(t, fresh, "S")
		e := mk()
		bindMM(t, e, 1)
		prog := mmProgram()
		for run := 0; run < 4; run++ {
			mustRun(t, e, prog)
			if d := matrix.BitDiff(peek(t, e, "S"), want); d != "" {
				t.Fatalf("run %d: S differs from a fresh engine's: %s", run, d)
			}
			held, s := e.pool.Bytes(), varBytes(e, "S")
			if held != s {
				t.Errorf("run %d: the pool holds %d bytes, %.2f× S's %d", run, held, float64(held)/float64(s), s)
			}
		}
	})
}

// reloadProgram is S = 2 * load(S): it reads S through a load and assigns
// it.
func reloadProgram() *expr.Program {
	p := expr.NewProgram()
	p.Assign("S", p.Scalar(matrix.ScalarMul, p.Load("S", oM, oN, 1), 2))
	return p
}

// TestLoadReadsWhatTheSessionHolds: after S = A %*% B, which DMac and
// SystemML-S keep only under the schemes the run made, S = 2 * load(S) plans
// its load from those instances as it plans a Var, and runs twice with no
// rebind, with the bits of the Local engine's runs.
func TestLoadReadsWhatTheSessionHolds(t *testing.T) {
	ref := New(Local, testConfig(), oBS)
	bindMM(t, ref, 5)
	for _, p := range []*expr.Program{mmProgram(), reloadProgram(), reloadProgram()} {
		mustRun(t, ref, p)
	}
	want := peek(t, ref, "S")
	eachOverwriteEngine(t, func(t *testing.T, mk func() *Engine) {
		e := mk()
		bindMM(t, e, 5)
		for _, p := range []*expr.Program{mmProgram(), reloadProgram(), reloadProgram()} {
			mustRun(t, e, p)
		}
		if d := matrix.BitDiff(peek(t, e, "S"), want); d != "" {
			t.Errorf("S differs from the Local engine's: %s", d)
		}
	})
}

// TestOverwriteKeepsWhatIsReached: a variable the program also reads — as a
// session variable or as a load — is not dropped, and neither are the
// blocks of a variable that shares them with the one overwritten. Every run
// matches a fresh engine running the same sequence.
func TestOverwriteKeepsWhatIsReached(t *testing.T) {
	accumulate := func() *expr.Program { // S = S + A %*% B
		p := expr.NewProgram()
		p.Assign("S", p.Add(p.Var("S", oM, oN, 1), p.Mul(p.Var("A", oM, oK, 1), p.Var("B", oK, oN, 1))))
		return p
	}
	shared := func() *expr.Program { // S = A %*% B; T = S
		p := expr.NewProgram()
		s := p.Mul(p.Var("A", oM, oK, 1), p.Var("B", oK, oN, 1))
		p.Assign("S", s)
		p.Assign("T", s)
		return p
	}
	eachOverwriteEngine(t, func(t *testing.T, mk func() *Engine) {
		e, fresh := mk(), mk()
		bindMM(t, e, 2)
		bindMM(t, fresh, 2)
		run := func(p *expr.Program) func(*Engine) error {
			return func(e *Engine) error { _, err := e.Run(p, nil); return err }
		}
		// A bind of S's own grid makes a hash-placed S sharing its blocks.
		rebindS := func(e *Engine) error { return e.Bind("S", peek(t, e, "S")) }
		steps := []func(*Engine) error{
			run(mmProgram()), run(accumulate()), run(accumulate()),
			rebindS, run(reloadProgram()), rebindS, run(reloadProgram()),
			run(shared()), run(mmProgram()), run(mmProgram()),
		}
		var tBefore *matrix.Grid
		for i, step := range steps {
			if i == len(steps)-2 {
				tBefore = peek(t, e, "T")
			}
			if err := step(e); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			if err := step(fresh); err != nil {
				t.Fatalf("step %d, fresh engine: %v", i, err)
			}
			if d := matrix.BitDiff(peek(t, e, "S"), peek(t, fresh, "S")); d != "" {
				t.Fatalf("step %d: S differs from a fresh engine's: %s", i, d)
			}
		}
		if d := matrix.BitDiff(peek(t, e, "T"), tBefore); d != "" {
			t.Errorf("T, which shared S's blocks, changed when S was overwritten: %s", d)
		}
	})
}

// TestOverwriteLeavesCallersGrid: a grid a caller took with Grid after run k
// keeps its bits through run k+1, which overwrites the variable with other
// values.
func TestOverwriteLeavesCallersGrid(t *testing.T) {
	eachOverwriteEngine(t, func(t *testing.T, mk func() *Engine) {
		e := mk()
		bindMM(t, e, 3)
		prog := mmProgram()
		for run := 0; run < 3; run++ {
			mustRun(t, e, prog)
			g := mustGrid(t, e, "S")
			want := g.Clone()
			bindMM(t, e, int64(4+run))
			mustRun(t, e, prog)
			if d := matrix.BitDiff(g, want); d != "" {
				t.Fatalf("run %d: the grid the caller took changed: %s", run, d)
			}
			fresh := mk()
			bindMM(t, fresh, int64(4+run))
			mustRun(t, fresh, prog)
			if d := matrix.BitDiff(peek(t, e, "S"), peek(t, fresh, "S")); d != "" {
				t.Fatalf("run %d: S differs from a fresh engine's: %s", run, d)
			}
		}
	})
}

// TestOverwriteFailedRunUnbinds: a run that fails or is cancelled after its
// plan is made leaves the variable it would overwrite unbound — never its
// old value, never half a new one — and the next run gives a fresh engine's
// bits.
func TestOverwriteFailedRunUnbinds(t *testing.T) {
	missing := func() *expr.Program { // S = A %*% C, C never bound
		p := expr.NewProgram()
		p.Assign("S", p.Mul(p.Var("A", oM, oK, 1), p.Var("C", oK, oN, 1)))
		return p
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	eachOverwriteEngine(t, func(t *testing.T, mk func() *Engine) {
		fresh := mk()
		bindMM(t, fresh, 5)
		mustRun(t, fresh, mmProgram())
		want := peek(t, fresh, "S")
		for _, fail := range []struct {
			name string
			run  func(e *Engine) error
		}{
			{"cancelled", func(e *Engine) error { _, err := e.RunCtx(cancelled, mmProgram(), nil); return err }},
			{"failed", func(e *Engine) error { _, err := e.Run(missing(), nil); return err }},
		} {
			e := mk()
			bindMM(t, e, 5)
			mustRun(t, e, mmProgram())
			if err := fail.run(e); err == nil {
				t.Fatalf("%s: the run succeeded", fail.name)
			}
			if _, ok := e.varGrid("S"); ok {
				t.Errorf("%s: S is still bound after the run that overwrites it failed", fail.name)
			}
			mustRun(t, e, mmProgram())
			if d := matrix.BitDiff(peek(t, e, "S"), want); d != "" {
				t.Errorf("%s: the next run's S differs from a fresh engine's: %s", fail.name, d)
			}
		}
	})
}

// TestOverwriteCheckpointRestore: GNMF that also assigns S = W %*% H, which
// no run reads, under a snapshot after every stage and a worker killed at
// the boundary of the plan's last stage in the second run: the restore runs
// beside the dropped S, and every run keeps a fault-free engine's bits.
func TestOverwriteCheckpointRestore(t *testing.T) {
	for _, rw := range []bool{false, true} {
		p := gnmfProgram(0.3)
		p.Assign("S", p.Mul(p.Var("W", tRows, tK, 1), p.Var("H", tK, tCols, 1)))
		ref := New(DMac, testConfig(), tBS)
		if rw {
			ref.SetRewriter(rewrite.New())
		}
		bindGNMF(t, ref)
		plan, err := ref.Plan(p)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig()
		cfg.Faults = dist.FaultPlan{Events: []dist.FaultEvent{
			{Run: 2, Stage: plan.Stages, Worker: 1, Kind: dist.FaultKillBoundary},
		}}
		e := New(DMac, cfg, tBS)
		if rw {
			e.SetRewriter(rewrite.New())
		}
		bindGNMF(t, e)
		if err := e.SetCheckpoint(t.TempDir(), CheckpointPolicy{Interval: 1}); err != nil {
			t.Fatal(err)
		}
		var total Metrics
		for run := 0; run < 3; run++ {
			m, err := e.Run(p, nil)
			if err != nil {
				t.Fatalf("rewrite=%v run %d: %v", rw, run, err)
			}
			total.Add(m)
			mustRun(t, ref, p)
			for _, name := range []string{"W", "H", "S"} {
				if d := matrix.BitDiff(peek(t, e, name), peek(t, ref, name)); d != "" {
					t.Errorf("rewrite=%v run %d: %s differs from the fault-free run: %s", rw, run, name, d)
				}
			}
		}
		if total.Retries != 1 || total.CheckpointBytes == 0 {
			t.Errorf("rewrite=%v: Retries = %d, CheckpointBytes = %d; want one kill recovered under snapshots",
				rw, total.Retries, total.CheckpointBytes)
		}
	}
}
