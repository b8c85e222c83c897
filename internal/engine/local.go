package engine

import (
	"fmt"
	"math"
	"time"

	"dmac/internal/cost"
	"dmac/internal/dep"
	"dmac/internal/dist"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/sched"
)

// localMulStrategy is the aggregation strategy of the local engine; In-Place
// is DMac's default (Section 5.3).
const localMulStrategy = sched.InPlace

// runLocal interprets a program on a single machine: the in-memory reference
// the paper compares against ("R" in Figure 6a). There is no planning, no
// partition schemes and no communication — only local parallel block
// computation on one worker.
func (e *Engine) runLocal(p *expr.Program, params map[string]float64) (Metrics, error) {
	if err := p.Validate(); err != nil {
		return Metrics{}, err
	}
	before := e.cluster.Net().Snapshot()
	start := time.Now()
	exec := e.cluster.Executor()
	net := e.cluster.Net()
	results := make(map[dep.MatrixID]*matrix.Grid, len(p.Nodes()))

	operand := func(r expr.Ref) *matrix.Grid {
		g := results[r.Node.ID]
		if r.Transposed {
			net.AddFLOPs(cost.TransposeFLOPs(float64(g.NNZ())))
			return exec.Transpose(g)
		}
		return g
	}

	// fusedOperand resolves a multiplication input without materializing a
	// transposed grid: the trans flag is pushed into the multiply kernels,
	// which read the operand by stride. The modelled transpose FLOPs stay
	// charged per use, so accounting matches the materializing path exactly.
	fusedOperand := func(r expr.Ref) *matrix.Grid {
		g := results[r.Node.ID]
		if r.Transposed {
			net.AddFLOPs(cost.TransposeFLOPs(float64(g.NNZ())))
		}
		return g
	}

	for _, idx := range p.OperatorOrder() {
		n := p.Nodes()[idx]
		switch n.Kind {
		case expr.KindLoad, expr.KindVar:
			vs, ok := e.vars[n.Name]
			if !ok {
				return Metrics{}, fmt.Errorf("engine: no bound matrix %q", n.Name)
			}
			inst := vs.instances[dep.SchemeNone]
			if inst == nil {
				for _, m := range vs.instances {
					inst = m
					break
				}
			}
			if inst == nil {
				return Metrics{}, fmt.Errorf("engine: %q has no data", n.Name)
			}
			if vs.rows != n.Rows || vs.cols != n.Cols {
				return Metrics{}, fmt.Errorf("engine: %q is %dx%d, program declares %dx%d",
					n.Name, vs.rows, vs.cols, n.Rows, n.Cols)
			}
			results[n.ID] = e.cluster.MaterializedGrid(inst)
		case expr.KindMul:
			ra, rb := n.Inputs[0], n.Inputs[1]
			a, b := fusedOperand(ra), fusedOperand(rb)
			net.AddFLOPs(cost.MulFLOPs(a.NNZ(), b.NNZ(), ra.Cols()))
			g, err := exec.MulTrans(a, b, ra.Transposed, rb.Transposed, localMulStrategy)
			if err != nil {
				return Metrics{}, err
			}
			results[n.ID] = g
		case expr.KindCell, expr.KindScalar, expr.KindUFunc, expr.KindFused:
			tree, err := n.Cells().Bind(params)
			if err != nil {
				return Metrics{}, fmt.Errorf("engine: %w", err)
			}
			ins := make([]*matrix.Grid, len(n.Inputs))
			for i, r := range n.Inputs {
				ins[i] = operand(r)
			}
			g, nnz, err := exec.Cells(tree, ins, -1)
			if err != nil {
				return Metrics{}, err
			}
			for j, l := range tree.Links {
				net.AddFLOPs(cost.CellLinkFLOPs(l.Kind, n.Rows, n.Cols, float64(nnz[j])))
			}
			results[n.ID] = g
		case expr.KindSum:
			a := operand(n.Inputs[0])
			net.AddFLOPs(cost.SumFLOPs(float64(a.NNZ())))
			e.scalars[scalarNameFor(p, n)] = matrix.SumGrid(a)
		case expr.KindNorm2:
			a := operand(n.Inputs[0])
			net.AddFLOPs(cost.Norm2FLOPs(float64(a.NNZ())))
			e.scalars[scalarNameFor(p, n)] = math.Sqrt(matrix.FrobeniusSqGrid(a))
		case expr.KindValue:
			a := operand(n.Inputs[0])
			e.scalars[scalarNameFor(p, n)] = a.At(0, 0)
		default:
			return Metrics{}, fmt.Errorf("engine: unknown node kind %v", n.Kind)
		}
	}
	for _, a := range p.Assignments() {
		g := results[a.Ref.Node.ID]
		if a.Ref.Transposed {
			g = exec.Transpose(g)
		}
		e.vars[a.Name] = &varState{
			rows: a.Ref.Rows(),
			cols: a.Ref.Cols(),
			instances: map[dep.Scheme]*dist.DistMatrix{
				dep.SchemeNone: dist.NewDistMatrix(g, dep.SchemeNone),
			},
		}
	}
	wall := time.Since(start).Seconds()
	after := e.cluster.Net().Snapshot()
	return e.metricsDelta(before, after, wall, 0, execStats{}), nil
}

func scalarNameFor(p *expr.Program, n *expr.Node) string {
	for _, so := range p.ScalarOuts() {
		if so.Node == n {
			return so.Name
		}
	}
	return fmt.Sprintf("m%d", n.ID)
}
