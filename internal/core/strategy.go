package core

import (
	"fmt"

	"dmac/internal/cost"
	"dmac/internal/dep"
	"dmac/internal/expr"
)

// Strategy identifies a physical execution strategy for an operator.
type Strategy int

// The execution strategies of DMac's operators. The three multiplication
// strategies are those of Figure 2; cell-wise and scalar operators align
// both operands on one scheme and run without communication.
const (
	// StrategyNone marks extended (non-compute) plan operators.
	StrategyNone Strategy = iota
	// RMM1 is replication-based multiplication A(b) x B(c) -> C(c).
	RMM1
	// RMM2 is replication-based multiplication A(r) x B(b) -> C(r).
	RMM2
	// CPMM is cross-product multiplication A(c) x B(r) -> C with a shuffled
	// aggregation of per-worker partial results; the aggregated output can
	// be produced with either one-dimensional scheme (r|c).
	CPMM
	// CellRow runs a cell-wise operator — binary, scalar, element-wise
	// function or a fused tree of them — on row-aligned operands.
	CellRow
	// CellCol runs it on column-aligned operands.
	CellCol
	// CellBcast runs it on broadcast replicas, producing a broadcast result.
	CellBcast
	// AggRow computes a driver aggregate over a row-partitioned input.
	AggRow
	// AggCol computes a driver aggregate over a column-partitioned input.
	AggCol
	// AggBcast computes a driver aggregate over a broadcast input.
	AggBcast
)

// String names the strategy as in the paper.
func (s Strategy) String() string {
	switch s {
	case StrategyNone:
		return "-"
	case RMM1:
		return "RMM1"
	case RMM2:
		return "RMM2"
	case CPMM:
		return "CPMM"
	case CellRow:
		return "cell(r)"
	case CellCol:
		return "cell(c)"
	case CellBcast:
		return "cell(b)"
	case AggRow:
		return "agg(r)"
	case AggCol:
		return "agg(c)"
	case AggBcast:
		return "agg(b)"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// candidate is one execution strategy for one operator: the schemes it
// requires for its inputs, the scheme(s) its output can carry, and the
// communication its own execution incurs (non-zero only for CPMM's shuffled
// aggregation, Section 4.1).
type candidate struct {
	strategy Strategy
	ins      []dep.Scheme
	// outSchemes lists the schemes the output event may carry. A single
	// entry is a fixed scheme; multiple entries mean the output is flexible
	// and is pinned later by the Re-assignment heuristic (CPMM's r|c).
	outSchemes []dep.Scheme
	// outCost is the communication cost of the output event in bytes.
	outCost int64
}

// candidatesFor enumerates the execution strategies of a compute node.
// workers is N; outSize is the worst-case |C| of the node's output.
func candidatesFor(n *expr.Node, workers int) []candidate {
	outSize := cost.SizeBytes(n.Rows, n.Cols, n.Sparsity)
	switch n.Kind {
	case expr.KindMul:
		return []candidate{
			{strategy: RMM1, ins: []dep.Scheme{dep.Broadcast, dep.Col}, outSchemes: []dep.Scheme{dep.Col}},
			{strategy: RMM2, ins: []dep.Scheme{dep.Row, dep.Broadcast}, outSchemes: []dep.Scheme{dep.Row}},
			{strategy: CPMM, ins: []dep.Scheme{dep.Col, dep.Row}, outSchemes: []dep.Scheme{dep.Row, dep.Col}, outCost: int64(workers) * outSize},
		}
	case expr.KindCell, expr.KindScalar, expr.KindUFunc, expr.KindFused:
		// Every input of a cell-wise operator — one, two, or the k of a
		// fused tree — on one scheme.
		all := func(s dep.Scheme) []dep.Scheme {
			ins := make([]dep.Scheme, len(n.Inputs))
			for i := range ins {
				ins[i] = s
			}
			return ins
		}
		return []candidate{
			{strategy: CellRow, ins: all(dep.Row), outSchemes: []dep.Scheme{dep.Row}},
			{strategy: CellCol, ins: all(dep.Col), outSchemes: []dep.Scheme{dep.Col}},
			{strategy: CellBcast, ins: all(dep.Broadcast), outSchemes: []dep.Scheme{dep.Broadcast}},
		}
	case expr.KindSum, expr.KindValue, expr.KindNorm2:
		return []candidate{
			{strategy: AggRow, ins: []dep.Scheme{dep.Row}},
			{strategy: AggCol, ins: []dep.Scheme{dep.Col}},
			{strategy: AggBcast, ins: []dep.Scheme{dep.Broadcast}},
		}
	default:
		return nil
	}
}
