package rewrite_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dmac/internal/core"
	"dmac/internal/dist"
	"dmac/internal/engine"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/rewrite"
)

// leafData builds deterministic grids for every leaf of a random program. In
// the sparse regime each cell is zero with probability 1 - the leaf's
// declared sparsity, so the rewriter's sparsity refinements face data that
// matches (and data that contradicts — declared estimates are worst cases)
// its estimates.
func leafData(rng *rand.Rand, p *expr.Program, bs int, sparse bool) map[string]*matrix.Grid {
	data := make(map[string]*matrix.Grid)
	for _, n := range p.Nodes() {
		if n.Kind != expr.KindVar && n.Kind != expr.KindLoad {
			continue
		}
		if _, ok := data[n.Name]; ok {
			continue
		}
		g := matrix.NewDenseGrid(n.Rows, n.Cols, bs)
		for ri := 0; ri < n.Rows; ri++ {
			for ci := 0; ci < n.Cols; ci++ {
				if sparse && rng.Float64() > n.Sparsity {
					continue
				}
				g.Set(ri, ci, 0.2+rng.Float64())
			}
		}
		data[n.Name] = g
	}
	return data
}

// differentialFaults is the fault regime applied to a subset of seeds: a
// scripted worker kill plus a scripted block corruption (stage 1 holds only
// leaves, so the first corruptible hand-offs are in stage 2), on top of
// seeded random corruption.
func differentialFaults() dist.FaultPlan {
	return dist.FaultPlan{
		Seed:        17,
		CorruptRate: 0.2,
		Events: []dist.FaultEvent{
			{Stage: 1, Worker: 1, Attempt: 0, Kind: dist.FaultKillBoundary},
			{Stage: 2, Worker: 2, Attempt: 0, Kind: dist.FaultCorrupt},
		},
	}
}

// TestDifferentialRewriteEquivalence is the rewriter's headline correctness
// property: across >= 100 seeded random programs, dense and sparse data
// regimes, the Local and DMac engines, and injected faults, a rewritten
// program produces results numerically equal (1e-9) to the unrewritten one —
// and every applied rewrite is non-increasing under the pass's cost model.
func TestDifferentialRewriteEquivalence(t *testing.T) {
	const bs = 4
	seeds := int64(100)
	if testing.Short() {
		seeds = 25
	}
	rw := rewrite.New()
	var rewritesSeen, fusedSeen, corruptionsSeen int
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed + 4200))
		prog, _ := core.RandomProgram(rng)
		if err := prog.Validate(); err != nil {
			t.Fatalf("seed %d: invalid program: %v", seed, err)
		}

		// Cost-model invariant: the pass never increases its own metric, and
		// no individual decision claims a negative combined saving.
		res, err := rw.Rewrite(prog)
		if err != nil {
			t.Fatalf("seed %d: rewrite: %v", seed, err)
		}
		if err := res.Program.Validate(); err != nil {
			t.Fatalf("seed %d: rewritten program invalid: %v", seed, err)
		}
		// Relative tolerance covers summation-order rounding only: the costs
		// are sums of the same kind of terms in different node orders.
		if res.CostAfter > res.CostBefore*(1+1e-12)+1e-12 {
			t.Fatalf("seed %d: cost increased %g -> %g", seed, res.CostBefore, res.CostAfter)
		}
		for _, d := range res.Decisions {
			if d.FLOPsSaved+float64(d.BytesSaved) < 0 {
				t.Fatalf("seed %d: decision with negative saving: %+v", seed, d)
			}
		}
		rewritesSeen += len(res.Decisions)
		for _, n := range res.Program.Nodes() {
			if n.Kind == expr.KindFused {
				fusedSeen++
			}
		}

		var outs, scalars []string
		for _, a := range prog.Assignments() {
			outs = append(outs, a.Name)
		}
		for _, s := range prog.ScalarOuts() {
			scalars = append(scalars, s.Name)
		}

		for _, sparse := range []bool{false, true} {
			regime := "dense"
			if sparse {
				regime = "sparse"
			}
			data := leafData(rand.New(rand.NewSource(seed+77)), prog, bs, sparse)

			type result struct {
				grids   map[string]*matrix.Grid
				scalars map[string]float64
				total   engine.Metrics
			}
			runOne := func(planner engine.Planner, rewriteOn bool, faults dist.FaultPlan) result {
				label := fmt.Sprintf("seed %d %s/%s rewrite=%v", seed, planner, regime, rewriteOn)
				cfg := dist.Config{Workers: 4, LocalParallelism: 2, Faults: faults}
				e := engine.New(planner, cfg, bs)
				if rewriteOn {
					e.SetRewriter(rw)
				}
				for name, g := range data {
					if err := e.Bind(name, g.Clone()); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
				r := result{grids: map[string]*matrix.Grid{}, scalars: map[string]float64{}}
				for iter := 0; iter < 2; iter++ {
					m, err := e.Run(prog, nil)
					if err != nil {
						t.Fatalf("%s iter %d: %v", label, iter, err)
					}
					r.total.Add(m)
				}
				for _, name := range outs {
					g, ok := e.Grid(name)
					if !ok {
						t.Fatalf("%s: output %s missing", label, name)
					}
					r.grids[name] = g
				}
				for _, name := range scalars {
					v, ok := e.Scalar(name)
					if !ok {
						t.Fatalf("%s: scalar %s missing", label, name)
					}
					r.scalars[name] = v
				}
				return r
			}
			check := func(label string, ref, got result) {
				for name, g := range ref.grids {
					if !matrix.GridEqual(got.grids[name], g, 1e-9) {
						t.Errorf("%s: output %s differs from unrewritten reference", label, name)
					}
				}
				for name, v := range ref.scalars {
					if d := got.scalars[name] - v; math.Abs(d) > 1e-9*(1+math.Abs(v)) {
						t.Errorf("%s: scalar %s = %v, reference %v", label, name, got.scalars[name], v)
					}
				}
			}

			ref := runOne(engine.Local, false, dist.FaultPlan{})
			check(fmt.Sprintf("seed %d Local/%s", seed, regime),
				ref, runOne(engine.Local, true, dist.FaultPlan{}))
			check(fmt.Sprintf("seed %d DMac/%s", seed, regime),
				ref, runOne(engine.DMac, false, dist.FaultPlan{}))
			check(fmt.Sprintf("seed %d DMac+rw/%s", seed, regime),
				ref, runOne(engine.DMac, true, dist.FaultPlan{}))

			// Fault injection on a subset of seeds: rewritten plans must
			// recover to the same results, and every injected corruption must
			// be detected.
			if seed%5 == 0 && !sparse {
				got := runOne(engine.DMac, true, differentialFaults())
				check(fmt.Sprintf("seed %d DMac+rw/faults", seed), ref, got)
				if got.total.CorruptionsInjected != got.total.CorruptionsDetected {
					t.Errorf("seed %d: %d corruptions injected, %d detected",
						seed, got.total.CorruptionsInjected, got.total.CorruptionsDetected)
				}
				corruptionsSeen += got.total.CorruptionsInjected
			}
		}
	}
	// The property must not be vacuous: rewrites and corruptions both fired.
	if rewritesSeen == 0 {
		t.Error("no rewrite ever applied across all seeds")
	}
	if fusedSeen < int(seeds)/2 {
		t.Errorf("only %d fused operators across %d seeds: the generator no longer exercises cell-wise fusion", fusedSeen, seeds)
	}
	if corruptionsSeen == 0 {
		t.Error("no corruption ever injected across the fault subset")
	}
}
