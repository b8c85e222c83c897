package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dmac/internal/dist"
	"dmac/internal/expr"
	"dmac/internal/matrix"
)

// randomExecProgram builds a random valid program plus dense positive data
// for its leaves, for cross-engine execution equivalence fuzzing.
func randomExecProgram(rng *rand.Rand, bs int) (*expr.Program, map[string]*matrix.Grid, []string, []string) {
	dims := []int{3, 5, 7}
	dim := func() int { return dims[rng.Intn(len(dims))] }
	p := expr.NewProgram()
	data := make(map[string]*matrix.Grid)
	var pool []expr.Ref

	nLeaves := 2 + rng.Intn(2)
	for i := 0; i < nLeaves; i++ {
		name := fmt.Sprintf("M%d", i)
		r, c := dim(), dim()
		ref := p.Var(name, r, c, 1)
		pool = append(pool, ref)
		g := matrix.NewDenseGrid(r, c, bs)
		for ri := 0; ri < r; ri++ {
			for ci := 0; ci < c; ci++ {
				g.Set(ri, ci, 0.2+rng.Float64())
			}
		}
		data[name] = g
	}

	pick := func() expr.Ref {
		r := pool[rng.Intn(len(pool))]
		if rng.Intn(3) == 0 {
			r = r.T()
		}
		return r
	}
	var scalars []string
	nOps := 3 + rng.Intn(8)
	for i := 0; i < nOps; i++ {
		switch rng.Intn(6) {
		case 0, 1:
			var a, b expr.Ref
			found := false
			for try := 0; try < 20 && !found; try++ {
				a, b = pick(), pick()
				found = a.Cols() == b.Rows()
			}
			if found {
				pool = append(pool, p.Mul(a, b))
			}
		case 2:
			var a, b expr.Ref
			found := false
			for try := 0; try < 20 && !found; try++ {
				a, b = pick(), pick()
				found = a.Rows() == b.Rows() && a.Cols() == b.Cols()
			}
			if found {
				if rng.Intn(2) == 0 {
					pool = append(pool, p.Add(a, b))
				} else {
					pool = append(pool, p.CellMul(a, b))
				}
			}
		case 3:
			pool = append(pool, p.Scalar(matrix.ScalarMul, pick(), 0.5+rng.Float64()))
		case 4:
			name := fmt.Sprintf("s%d", i)
			p.Sum(name, pick())
			scalars = append(scalars, name)
		case 5:
			// Element-wise functions that are safe on any real input.
			funcs := []matrix.UFunc{matrix.FuncSigmoid, matrix.FuncAbs, matrix.FuncSign}
			pool = append(pool, p.Func(funcs[rng.Intn(len(funcs))], pick()))
		}
	}
	var outs []string
	for i := 0; i < 2 && i < len(pool); i++ {
		name := fmt.Sprintf("out%d", i)
		ref := pool[len(pool)-1-i]
		switch rng.Intn(4) {
		case 0:
			ref = ref.T()
		case 1:
			ref = pool[rng.Intn(nLeaves)].T()
		}
		p.Assign(name, ref)
		outs = append(outs, name)
	}
	return p, data, outs, scalars
}

// evalDirect is the execution harness's independent reference: it evaluates
// a program node by node with internal/matrix's serial grid operations —
// MulGrid on Grid.Transpose copies, CellTree.EvalBlock block by block,
// SumGrid, FrobeniusSqGrid and At — and shares no plan, executor or cluster
// with the engines it checks. It returns the assigned grids and the scalar
// outputs.
func evalDirect(p *expr.Program, inputs map[string]*matrix.Grid, params map[string]float64) (map[string]*matrix.Grid, map[string]float64, error) {
	vals := make(map[*expr.Node]*matrix.Grid)
	get := func(r expr.Ref) *matrix.Grid {
		if r.Transposed {
			return vals[r.Node].Transpose()
		}
		return vals[r.Node]
	}
	names := make(map[*expr.Node]string)
	for _, so := range p.ScalarOuts() {
		names[so.Node] = so.Name
	}
	scalars := make(map[string]float64)
	for _, idx := range p.OperatorOrder() {
		n := p.Nodes()[idx]
		switch n.Kind {
		case expr.KindLoad, expr.KindVar:
			g, ok := inputs[n.Name]
			if !ok {
				return nil, nil, fmt.Errorf("no input %q", n.Name)
			}
			vals[n] = g
		case expr.KindMul:
			g, err := matrix.MulGrid(get(n.Inputs[0]), get(n.Inputs[1]))
			if err != nil {
				return nil, nil, err
			}
			vals[n] = g
		case expr.KindSum:
			scalars[names[n]] = matrix.SumGrid(get(n.Inputs[0]))
		case expr.KindNorm2:
			scalars[names[n]] = math.Sqrt(matrix.FrobeniusSqGrid(get(n.Inputs[0])))
		case expr.KindValue:
			scalars[names[n]] = get(n.Inputs[0]).At(0, 0)
		default:
			tree, err := n.Cells().Bind(params)
			if err != nil {
				return nil, nil, err
			}
			ins := make([]*matrix.Grid, len(n.Inputs))
			for i, r := range n.Inputs {
				ins[i] = get(r)
			}
			out := matrix.NewGridSlots(n.Rows, n.Cols, ins[0].BlockSize())
			blocks := make([]matrix.Block, len(ins))
			for bi := 0; bi < out.BlockRows(); bi++ {
				for bj := 0; bj < out.BlockCols(); bj++ {
					for i, g := range ins {
						blocks[i] = g.Block(bi, bj)
					}
					b, err := tree.EvalBlock(blocks, nil, nil)
					if err != nil {
						return nil, nil, err
					}
					out.SetBlock(bi, bj, b)
				}
			}
			vals[n] = out.Filled()
		}
	}
	grids := make(map[string]*matrix.Grid)
	for _, a := range p.Assignments() {
		grids[a.Name] = get(a.Ref)
	}
	return grids, scalars, nil
}

// TestFuzzExecutionEquivalence runs random programs on all three engines —
// twice each, so session scheme caching is exercised — and holds each to
// evalDirect: output grids bit for bit, scalars within a summation-order
// tolerance. The three engines of a seed share one PlanCache, and the second
// run is of a rebuilt copy of the program, so plans come from the cache by
// signature; each engine's FLOPs and communication must equal those of an
// engine of its planner with a private cache running the same two programs.
func TestFuzzExecutionEquivalence(t *testing.T) {
	const bs = 4
	cfg := dist.Config{Workers: 3, LocalParallelism: 2}
	served := 0
	for seed := int64(0); seed < 200; seed++ {
		build := func() (*expr.Program, map[string]*matrix.Grid, []string, []string) {
			return randomExecProgram(rand.New(rand.NewSource(seed+5000)), bs)
		}
		prog, data, outs, scalars := build()
		rebuilt, _, _, _ := build()
		if err := prog.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		wantGrids, wantScalars, err := evalDirect(prog, data, nil)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		shared := NewPlanCache(0)
		for _, planner := range []Planner{Local, DMac, SystemMLS} {
			run := func(pc *PlanCache) (*Engine, Metrics) {
				e := New(planner, cfg, bs)
				if pc != nil {
					e.SetSharedPlanCache(pc)
				}
				for name, g := range data {
					if err := e.Bind(name, g.Clone()); err != nil {
						t.Fatalf("seed %d %s: %v", seed, planner, err)
					}
				}
				var total Metrics
				for iter, p := range []*expr.Program{prog, rebuilt} {
					m, err := e.Run(p, nil)
					if err != nil {
						t.Fatalf("seed %d %s iter %d: %v\nprogram nodes: %d", seed, planner, iter, err, len(p.Nodes()))
					}
					total.Add(m)
				}
				return e, total
			}
			e, got := run(shared)
			_, want := run(nil)
			if got.FLOPs != want.FLOPs || got.CommBytes != want.CommBytes || got.CommEvents != want.CommEvents {
				t.Errorf("seed %d: %s under the shared cache did %g FLOPs, %d B in %d events; its own plans %g FLOPs, %d B in %d events",
					seed, planner, got.FLOPs, got.CommBytes, got.CommEvents, want.FLOPs, want.CommBytes, want.CommEvents)
			}
			hits, _ := e.PlanCacheStats()
			served += hits
			for _, name := range outs {
				g, ok := e.Grid(name)
				if !ok {
					t.Fatalf("seed %d %s: output %s missing", seed, planner, name)
				}
				if matrix.BitDiff(g, wantGrids[name]) != "" {
					t.Errorf("seed %d: %s output %s differs from the direct evaluation", seed, planner, name)
				}
			}
			for _, name := range scalars {
				v, ok := e.Scalar(name)
				if !ok {
					t.Fatalf("seed %d %s: scalar %s missing", seed, planner, name)
				}
				if want := wantScalars[name]; math.Abs(v-want) > 1e-6*(1+math.Abs(want)) {
					t.Errorf("seed %d: %s scalar %s = %v, direct %v", seed, planner, name, v, want)
				}
			}
		}
	}
	if served == 0 {
		t.Error("no run was served a cached plan")
	}
}
