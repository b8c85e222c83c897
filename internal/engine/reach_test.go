package engine

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"dmac/internal/core"
	"dmac/internal/dep"
	"dmac/internal/dist"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/obs"
	"dmac/internal/rewrite"
	"dmac/internal/workload"
)

// TestServedJobsChargeOnlyTheirReaders runs the three registry jobs as a
// service slot does — 4 workers, the rewrite pass, each job cut at
// max(32, BlockSizeFor) — at the parameters of the serve_mix benchmark. Each
// is cut into fewer blocks than there are workers, so its broadcasts ring only
// to the workers its readers run on, and each block only to those of them
// that do not own it. The jobs charge exactly:
//
//   - pagerank: rank(b) reaches worker 0 only, which owns rank's one block,
//     so it moves nothing, where every worker would be sent 32,768 B an
//     iteration;
//   - gram: Vᵀ(b), read by its RMM1 and its extract on worker 0, sends
//     worker 0 the block on worker 1, 20,744 B of Vᵀ's 41,368 B, instead of
//     4 × 41,368, and its aggregate collects 8 B from worker 0, the one
//     owner of its operand's block, where all four workers would send 32;
//   - blend: A(b), kept for iteration 2 beside the hash-placed A, reaches
//     workers 0 to 2, the holders of B's three block-columns, which also hold
//     A's three block-rows: each goes to the two receivers that do not own
//     it, 2 × 65,536 B instead of 4 ×, and iteration 2 reads the session's
//     replica as it is; besides one 65,536 B partition, each iteration's
//     aggregate collects 8 B from each of the three owners of its
//     operand's block-rows, 24 B.
//
// The plans' estimates still price every broadcast at N·|A|, so they bound
// what the jobs charge.
func TestServedJobsChargeOnlyTheirReaders(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params workload.Params
		want   int64
	}{
		{"pagerank", workload.Params{"nodes": 1024, "iters": 5, "degree": 8}, 110656},
		{"gram", workload.Params{"rows": 512, "cols": 128, "sparsity": 0.05}, 20752},
		{"blend", workload.Params{"n": 256, "k": 32, "iters": 2}, 196656},
	} {
		e := New(DMac, dist.ScaledConfig(4, 8), 32)
		e.SetRewriter(rewrite.New())
		size := func(rows, cols int, density float64) int { return max(32, e.BlockSizeFor(rows, cols, density)) }
		b, err := workload.DefaultRegistry().BuildSized(tc.name, size, tc.params)
		if err != nil {
			t.Fatal(err)
		}
		for n, g := range b.Inputs {
			if err := e.Bind(n, g); err != nil {
				t.Fatal(err)
			}
		}
		var got, estimate int64
		for i := 0; i < b.Iterations; i++ {
			plan, err := e.Plan(b.Program)
			if err != nil {
				t.Fatal(err)
			}
			estimate += plan.TotalCommBytes()
			m, err := e.Run(b.Program, b.Params)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			got += m.CommBytes
		}
		if got != tc.want {
			t.Errorf("%s charged %d B, want %d", tc.name, got, tc.want)
		}
		if got > estimate {
			t.Errorf("%s charged %d B, more than its plans' estimate of %d", tc.name, got, estimate)
		}
		if tc.name == "blend" {
			inst, ok := e.vars["A"].instances[dep.Broadcast]
			if !ok {
				t.Fatal("blend keeps no A(b)")
			}
			if !slices.Equal(inst.Reach(), []int{0, 1, 2}) {
				t.Errorf("the session's A(b) reaches workers %v, want [0 1 2]", inst.Reach())
			}
		}
	}
}

// narrowedAcrossStages builds a plan whose narrowed broadcast is read a stage
// after it is sent: (A + A)(r) is broadcast in stage 2 to worker 0, the only
// holder of the one block-column of B %*% C, whose CPMM lands in stage 3
// where the RMM1 reads both. A(r) comes from a first run that partitioned it.
func narrowedAcrossStages(t *testing.T, faults dist.FaultPlan) (*Engine, Metrics) {
	t.Helper()
	const bs = 32
	e := New(DMac, dist.Config{Workers: 4, LocalParallelism: 2, Faults: faults}, bs)
	for name, g := range map[string]*matrix.Grid{
		"A": workload.DenseRandom(1, 8, 32, bs),
		"B": workload.DenseRandom(2, 32, 2048, bs),
		"C": workload.DenseRandom(3, 2048, 32, bs),
	} {
		if err := e.Bind(name, g); err != nil {
			t.Fatal(err)
		}
	}
	warm := expr.NewProgram()
	wa := warm.Var("A", 8, 32, 1)
	warm.Assign("Z", warm.Add(wa, wa))
	if _, err := e.Run(warm, nil); err != nil {
		t.Fatal(err)
	}
	p := expr.NewProgram()
	a := p.Var("A", 8, 32, 1)
	p.Assign("Y", p.Mul(p.Add(a, a), p.Mul(p.Var("B", 32, 2048, 1), p.Var("C", 2048, 32, 1))))
	plan, err := e.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	var bcast *core.Op
	for _, op := range plan.Ops {
		if op.Kind == core.OpBroadcast {
			bcast = op
		}
	}
	if bcast == nil || bcast.Reach == nil || bcast.Stage != 2 || plan.Stages != 3 {
		t.Fatalf("want a narrowed broadcast in stage 2 of 3, got plan\n%s", plan)
	}
	m, err := e.Run(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e, m
}

// TestNarrowedBroadcastSurvivesReceiverLoss kills a worker at the boundary of
// the stage that reads a narrowed broadcast sent the stage before. Losing its
// one receiver, worker 0, costs the replica's |A| and the one block of the
// A(r) the session keeps on top of the dead worker's share of the CPMM
// operands the stage re-reads, and the survivor taking worker 0's blocks
// reads the copy; losing worker 2, which holds no copy and no block of A,
// costs only its operand share. Both results are bit-identical to the
// fault-free run's.
func TestNarrowedBroadcastSurvivesReceiverLoss(t *testing.T) {
	clean, _ := narrowedAcrossStages(t, dist.FaultPlan{})
	want, _ := clean.Grid("Y")
	replica := int64(matrix.DenseMemBytes(8, 32))
	kept := replica // A(r), one 8×32 block on worker 0
	operands := (matrix.DenseMemBytes(32, 2048) + matrix.DenseMemBytes(2048, 32)) / 4
	for _, tc := range []struct {
		worker   int
		recovery int64
	}{
		{0, replica + kept + operands},
		{2, operands},
	} {
		faults := dist.FaultPlan{Events: []dist.FaultEvent{{Stage: 3, Worker: tc.worker, Kind: dist.FaultKillBoundary}}}
		e, m := narrowedAcrossStages(t, faults)
		if m.Retries != 1 {
			t.Errorf("kill %d: %d retries, want 1", tc.worker, m.Retries)
		}
		if m.RecoveryBytes != tc.recovery {
			t.Errorf("kill %d: recovery charged %d B, want %d", tc.worker, m.RecoveryBytes, tc.recovery)
		}
		if got, _ := e.Grid("Y"); matrix.BitDiff(got, want) != "" {
			t.Errorf("kill %d: Y differs from the fault-free run's", tc.worker)
		}
	}
}

// TestRandomProgramsNarrowWithinReceivers runs the shared random programs at
// block sizes that leave fewer blocks than workers, twice each so the second
// run reads what the first kept, on both distributed planners. Every run
// succeeds — no reader falls outside its broadcast's receivers — and no
// broadcast rings to more than the alive workers; some ring to fewer.
func TestRandomProgramsNarrowWithinReceivers(t *testing.T) {
	narrowed := 0
	for seed := int64(0); seed < 40; seed++ {
		for _, bs := range []int{4, 8} {
			for _, planner := range []Planner{DMac, SystemMLS} {
				rng := rand.New(rand.NewSource(seed + 5200))
				prog, _ := core.RandomProgram(rng)
				e := New(planner, dist.Config{Workers: 4, LocalParallelism: 2}, bs)
				tr := obs.NewTracer()
				e.SetObserver(tr, nil)
				for name, g := range denseLeafData(rng, prog, bs) {
					if err := e.Bind(name, g); err != nil {
						t.Fatal(err)
					}
				}
				for iter := 0; iter < 2; iter++ {
					if _, err := e.Run(prog, nil); err != nil {
						t.Fatalf("seed %d bs %d %s iter %d: %v", seed, bs, planner, iter, err)
					}
				}
				for _, s := range tr.Spans() {
					if s.Cat != "comm" || s.Name != "broadcast" {
						continue
					}
					r, _ := s.Attr("replicas")
					if r.Int > 4 || r.Int < 1 {
						t.Errorf("seed %d bs %d %s: a broadcast rang to %d workers of 4", seed, bs, planner, r.Int)
					}
					if r.Int < 4 {
						narrowed++
					}
				}
			}
		}
	}
	if narrowed == 0 {
		t.Error("no broadcast was narrowed: the test exercises nothing")
	}
	t.Logf("%d narrowed broadcasts", narrowed)
}

// TestRecoveryChargesEveryLiveValue kills worker 0 at stage 3 of GNMF's
// second iteration planned without CPMM, where V's two instances, W(r) and
// the transposed Wᵀ(b) — a replica narrowed to workers 0 and 1 — are live
// across the stage but read only after it. Recovery charges the dead worker's
// share of every value in LiveAfter(2) (the stage reads no leaf instance), as
// a twin session run through the iteration's first two stages measures them.
func TestRecoveryChargesEveryLiveValue(t *testing.T) {
	const bs, stage, worker = 32, 3, 0
	prog := gnmfProgram(0.3)
	session := func(faults dist.FaultPlan) *Engine {
		cfg := testConfig()
		cfg.Faults = faults
		e := New(DMac, cfg, bs)
		e.SetAblation(false, false, true)
		rng := rand.New(rand.NewSource(42))
		for name, g := range map[string]*matrix.Grid{ // drawn in this order
			"V": randSparseGrid(rng, tRows, tCols, bs, 0.3), "W": randDenseGrid(rng, tRows, tK, bs), "H": randDenseGrid(rng, tK, tCols, bs),
		} {
			if err := e.Bind(name, g); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Run(prog, nil); err != nil {
			t.Fatal(err)
		}
		return e
	}
	twin := session(dist.FaultPlan{})
	plan, err := twin.Plan(prog)
	if err != nil {
		t.Fatal(err)
	}
	st := &execState{plan: plan, vals: make([]*dist.DistMatrix, len(plan.Values)), made: make([]dist.Snapshot, len(plan.Values)), ledger: make([]StageMetrics, plan.Stages)}
	for s := 1; s < stage; s++ {
		if err := twin.runStageOnce(context.Background(), st, s, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	var want, unread int64
	for _, id := range plan.LiveAfter(stage - 1) {
		b := twin.cluster.WorkerBytes(st.vals[id], worker)
		want += b
		if !slices.ContainsFunc(plan.StageOps(stage), func(op *core.Op) bool { return slices.Contains(op.Inputs, id) }) {
			unread += b
		}
	}
	if unread == 0 {
		t.Fatal("worker 0 holds nothing of the values live across stage 3 but not read in it: the test exercises nothing")
	}
	e := session(dist.FaultPlan{Events: []dist.FaultEvent{{Run: 2, Stage: stage, Worker: worker, Kind: dist.FaultKillBoundary}}})
	if m, err := e.Run(prog, nil); err != nil || m.Retries != 1 || m.RecoveryBytes != want {
		t.Errorf("%d retries charging %d B (%v), want 1 charging %d (%d of it for values stage 3 does not read)", m.Retries, m.RecoveryBytes, err, want, unread)
	}
}
