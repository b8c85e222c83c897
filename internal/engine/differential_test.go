package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dmac/internal/core"
	"dmac/internal/dist"
	"dmac/internal/expr"
	"dmac/internal/matrix"
)

// differentialPlans are the fault regimes each random program runs under:
// fault-free, scripted kills, seeded random kills, scripted block
// corruption, and kills racing seeded corruption.
func differentialPlans() map[string]dist.FaultPlan {
	return map[string]dist.FaultPlan{
		"no-faults": {},
		"scripted": {Events: []dist.FaultEvent{
			{Stage: 1, Worker: 1, Attempt: 0, Kind: dist.FaultKillBoundary},
			{Stage: 2, Worker: 0, Attempt: 0, Kind: dist.FaultKillTask},
		}},
		"random": dist.RandomFaultPlan(99, 0.2),
		// Stage 1 of a generated plan holds only leaves and local transposes;
		// the first block hand-offs — where corruption can fire — are in
		// stage 2.
		"corrupt": {Events: []dist.FaultEvent{
			{Stage: 2, Worker: 2, Attempt: 0, Kind: dist.FaultCorrupt},
		}},
		"kill+corrupt": {
			Seed:        31,
			CorruptRate: 0.25,
			Events: []dist.FaultEvent{
				{Stage: 2, Worker: 3, Attempt: 0, Kind: dist.FaultCorrupt},
				{Stage: 1, Worker: 1, Attempt: 0, Kind: dist.FaultKillBoundary},
			},
		},
	}
}

// denseLeafData builds positive dense grids for every leaf of a random
// program (dimensions come from the Var nodes themselves).
func denseLeafData(rng *rand.Rand, p *expr.Program, bs int) map[string]*matrix.Grid {
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
				g.Set(ri, ci, 0.2+rng.Float64())
			}
		}
		data[n.Name] = g
	}
	return data
}

// TestDifferentialEnginesUnderChaos is the differential property test: random
// programs from the shared core generator must produce numerically equal
// results (within 1e-9) on Local, DMac, and SystemML-S — and injected worker
// failures must not move any distributed result by a single bit relative to
// its own fault-free run.
func TestDifferentialEnginesUnderChaos(t *testing.T) {
	const bs = 4
	injectedByPlan := make(map[string]int)
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed + 9000))
		prog, _ := core.RandomProgram(rng)
		if err := prog.Validate(); err != nil {
			t.Fatalf("seed %d: invalid program: %v", seed, err)
		}
		data := denseLeafData(rng, prog, bs)
		var outs, scalars []string
		for _, a := range prog.Assignments() {
			outs = append(outs, a.Name)
		}
		for _, s := range prog.ScalarOuts() {
			scalars = append(scalars, s.Name)
		}

		type result struct {
			grids   map[string]*matrix.Grid
			scalars map[string]float64
			total   Metrics
		}
		runOne := func(planner Planner, faults dist.FaultPlan) result {
			cfg := dist.Config{Workers: 4, LocalParallelism: 2, Faults: faults}
			e := New(planner, cfg, bs)
			for name, g := range data {
				if err := e.Bind(name, g.Clone()); err != nil {
					t.Fatalf("seed %d %s: %v", seed, planner, err)
				}
			}
			var total Metrics
			for iter := 0; iter < 2; iter++ {
				m, err := e.Run(prog, nil)
				if err != nil {
					t.Fatalf("seed %d %s iter %d: %v", seed, planner, iter, err)
				}
				total.Add(m)
			}
			res := result{grids: map[string]*matrix.Grid{}, scalars: map[string]float64{}, total: total}
			for _, name := range outs {
				g, ok := e.Grid(name)
				if !ok {
					t.Fatalf("seed %d %s: output %s missing", seed, planner, name)
				}
				res.grids[name] = g
			}
			for _, name := range scalars {
				v, ok := e.Scalar(name)
				if !ok {
					t.Fatalf("seed %d %s: scalar %s missing", seed, planner, name)
				}
				res.scalars[name] = v
			}
			return res
		}

		ref := runOne(Local, dist.FaultPlan{})
		for _, planner := range []Planner{DMac, SystemMLS} {
			clean := runOne(planner, dist.FaultPlan{})
			for planName, faults := range differentialPlans() {
				label := fmt.Sprintf("seed %d %s/%s", seed, planner, planName)
				got := clean
				if planName != "no-faults" {
					got = runOne(planner, faults)
				}
				for name, g := range ref.grids {
					if !matrix.GridEqual(got.grids[name], g, 1e-9) {
						t.Errorf("%s: output %s differs from local reference", label, name)
					}
					if matrix.BitDiff(got.grids[name], clean.grids[name]) != "" {
						t.Errorf("%s: output %s moved relative to the fault-free run", label, name)
					}
				}
				for name, v := range ref.scalars {
					if d := got.scalars[name] - v; math.Abs(d) > 1e-9*(1+math.Abs(v)) {
						t.Errorf("%s: scalar %s = %v, local %v", label, name, got.scalars[name], v)
					}
					if math.Float64bits(got.scalars[name]) != math.Float64bits(clean.scalars[name]) {
						t.Errorf("%s: scalar %s = %v, fault-free %v", label, name, got.scalars[name], clean.scalars[name])
					}
				}
				if got.total.CorruptionsInjected != got.total.CorruptionsDetected {
					t.Errorf("%s: %d corruptions injected but %d detected",
						label, got.total.CorruptionsInjected, got.total.CorruptionsDetected)
				}
				injectedByPlan[planName] += got.total.CorruptionsInjected
			}
		}
	}
	// The corruption regimes must actually fire somewhere across the seeds —
	// otherwise the invariant above is vacuous.
	for _, plan := range []string{"corrupt", "kill+corrupt"} {
		if injectedByPlan[plan] == 0 {
			t.Errorf("plan %s never injected a corruption across all seeds", plan)
		}
	}
	for _, plan := range []string{"no-faults", "scripted", "random"} {
		if injectedByPlan[plan] != 0 {
			t.Errorf("plan %s injected %d corruptions; want none", plan, injectedByPlan[plan])
		}
	}
}
