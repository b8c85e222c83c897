package dist

import (
	"context"
	"fmt"
	"math"

	"dmac/internal/cost"
	"dmac/internal/dep"
	"dmac/internal/matrix"
	"dmac/internal/obs"
	"dmac/internal/sched"
)

// MulStrategy selects the distributed multiplication strategy of Figure 2.
type MulStrategy int

// The three distributed multiplication strategies.
const (
	// RMM1: A(b) x B(c) -> C(c); each worker multiplies the full replica of
	// A against its column slice of B. No communication during execution.
	RMM1 MulStrategy = iota
	// RMM2: A(r) x B(b) -> C(r).
	RMM2
	// CPMM: A(c) x B(r); worker w computes the partial product of its
	// column slice of A with its row slice of B, and the partials are
	// shuffled and summed into the requested output scheme. Eq. 1 plans
	// N x |C|; an owner keeps its own partial, so the shuffle moves
	// (N-1) x |C| on a full cluster.
	CPMM
	// Local: A(-) x B(-) -> C(-) on a one-worker cluster, where every
	// hash-placed matrix is whole; the single-machine reference's multiply.
	Local
)

// String names the strategy.
func (s MulStrategy) String() string {
	switch s {
	case RMM1:
		return "RMM1"
	case RMM2:
		return "RMM2"
	case CPMM:
		return "CPMM"
	case Local:
		return "Local"
	default:
		return fmt.Sprintf("MulStrategy(%d)", int(s))
	}
}

// Multiply runs a distributed multiplication with the given strategy and
// the classical block kernel. The operand schemes must match the strategy's
// requirements, and a replicated operand must have reached every worker its
// partner's blocks are on; the output scheme for CPMM is outScheme (Row or
// Col), ignored for RMM1/RMM2.
func (c *Cluster) Multiply(ctx context.Context, a, b *DistMatrix, strategy MulStrategy, outScheme dep.Scheme, stage int) (*DistMatrix, error) {
	var want [2]dep.Scheme
	switch strategy {
	case RMM1:
		want = [2]dep.Scheme{dep.Broadcast, dep.Col}
	case RMM2:
		want = [2]dep.Scheme{dep.Row, dep.Broadcast}
	case CPMM:
		want = [2]dep.Scheme{dep.Col, dep.Row}
	case Local:
		if !c.whole() {
			return nil, fmt.Errorf("dist: Local multiplication on %d workers", c.cfg.Workers)
		}
		want = [2]dep.Scheme{dep.SchemeNone, dep.SchemeNone}
	default:
		return nil, fmt.Errorf("dist: unknown multiplication strategy %d", strategy)
	}
	if a.Scheme != want[0] || b.Scheme != want[1] {
		return nil, fmt.Errorf("dist: %s requires schemes (%s,%s), got (%s,%s)",
			strategy, want[0], want[1], a.Scheme, b.Scheme)
	}
	// The replicated operand must reach every worker its partner's blocks
	// are on: RMM1 runs by B's block-columns, RMM2 by A's block-rows.
	var reach error
	switch strategy {
	case RMM1:
		reach = c.readsWithin(a, b)
	case RMM2:
		reach = c.readsWithin(b, a)
	}
	if reach != nil {
		return nil, fmt.Errorf("dist: %s: %w", strategy, reach)
	}
	c.charge(ctx, Snapshot{FLOPs: cost.MulFLOPs(a.Grid.NNZ(), b.Grid.NNZ(), a.Cols())})
	if err := c.opFault(ctx); err != nil {
		return nil, err
	}
	// Transpose views are fused into the multiply kernels: the stored grids
	// are read by stride, no transposed copy is allocated.
	grid, err := c.exec.MulTrans(ctx, a.Grid, b.Grid, a.trans, b.trans, sched.InPlace)
	if err != nil {
		return nil, err
	}
	out := &DistMatrix{Grid: grid}
	switch strategy {
	case RMM1:
		out.Scheme = dep.Col
	case RMM2:
		out.Scheme = dep.Row
	case CPMM:
		if outScheme != dep.Row && outScheme != dep.Col {
			return nil, fmt.Errorf("dist: CPMM output scheme %s", outScheme)
		}
		out.Scheme = outScheme
		xfers, bytes, senders := c.shuffleXfers(a, out)
		err := c.collective(ctx, stage, commCPMMShuffle, bytes, out, func() (Wire, error) {
			return c.transport.Scatter(ctx, "cpmm-shuffle", stage, xfers)
		}, obs.String("strategy", "CPMM"), obs.String("to_scheme", outScheme.String()),
			obs.Int64("senders", int64(senders)))
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Cells evaluates a cell-wise tree over identically placed matrices — a single
// cell-wise, scalar or element-wise function operator is a tree of one link —
// with no communication; the result keeps the inputs' scheme. Hash-placed
// inputs are identically placed only on one worker. The tree's parameters
// must be bound. It charges, link by link, what the operators cost one at a
// time (cost.CellLinkFLOPs, a scalar link over the stored elements of its
// operand).
//
// overwrite names the input whose blocks receive the result, -1 for none. The
// caller vouches that nothing else can reach that matrix and must drop it.
// Every other input is only read: other operators may be reading it too.
func (c *Cluster) Cells(ctx context.Context, t *matrix.CellTree, ins []*DistMatrix, overwrite int) (*DistMatrix, error) {
	if len(ins) == 0 {
		return nil, fmt.Errorf("dist: cellwise without inputs")
	}
	a := ins[0]
	for _, m := range ins {
		// Only the plan's multiplications and extracts read a narrowed
		// broadcast; a result here would claim to be everywhere.
		if m.reach != nil {
			return nil, fmt.Errorf("dist: cellwise on a broadcast that reaches only workers %v", m.reach)
		}
	}
	mixed := false
	for _, b := range ins[1:] {
		if a.Scheme != b.Scheme {
			return nil, fmt.Errorf("dist: cellwise on mismatched schemes %s vs %s", a.Scheme, b.Scheme)
		}
		mixed = mixed || a.trans != b.trans
	}
	if !a.Scheme.Valid() && !c.whole() {
		return nil, fmt.Errorf("dist: cellwise on scheme %s", a.Scheme)
	}
	if err := c.opFault(ctx); err != nil {
		return nil, err
	}
	// Cell-wise operators commute with transposition: views in one
	// orientation combine on their stored grids and the result stays a view.
	// Mixed orientations transpose each view into a grid of the operator's
	// own; the view itself is left as it is.
	grids := make([]*matrix.Grid, len(ins))
	for i, m := range ins {
		grids[i] = m.Grid
		if mixed && m.trans {
			grids[i] = c.exec.Transpose(ctx, m.Grid)
		}
	}
	grid, nnz, err := c.exec.Cells(ctx, t, grids, overwrite)
	if err != nil {
		return nil, err
	}
	for j, l := range t.Links {
		c.charge(ctx, Snapshot{FLOPs: cost.CellLinkFLOPs(l.Kind, a.Rows(), a.Cols(), float64(nnz[j]))})
	}
	return &DistMatrix{Grid: grid, Scheme: a.Scheme, trans: a.trans && !mixed}, nil
}

// shuffleXfers is the CPMM shuffle's move list, with its charge and the
// number of senders: the senders are the alive owners of a's block-columns,
// each holding a partial of every block of out, and each ships its partial
// to the block's owner unless it is that owner. A block is charged its bytes
// once per sender other than its owner: (N-1) x |C| on a full cluster.
func (c *Cluster) shuffleXfers(a, out *DistMatrix) ([]BlockXfer, int64, int) {
	senders := c.owners(a)
	br, bc := out.BlockRows(), out.BlockCols()
	xfers := make([]BlockXfer, 0, br*bc*len(senders))
	var bytes int64
	for _, s := range senders {
		for bi := 0; bi < br; bi++ {
			for bj := 0; bj < bc; bj++ {
				if to := c.Owner(out, bi, bj); to != s {
					xfers = append(xfers, BlockXfer{Bi: bi, Bj: bj, From: s, To: to, Block: out.StoredBlock(bi, bj)})
					bytes += out.BlockBytes(bi, bj)
				}
			}
		}
	}
	return xfers, bytes, len(senders)
}

// collect gathers an aggregate of a at the driver: 8 bytes from each worker
// that owns a block of a, or from one receiver of a broadcast replica, which
// each of them holds whole. On one worker the aggregate is already whole
// there: nothing is sent or charged.
func (c *Cluster) collect(ctx context.Context, a *DistMatrix, stage int) error {
	if c.whole() {
		return nil
	}
	from := c.owners(a)
	return c.collective(ctx, stage, commCollect, 8*int64(len(from)), nil, func() (Wire, error) {
		return c.transport.Collect(ctx, stage, from)
	})
}

// Sum computes the sum of all cells: local partials plus a tiny driver
// collect (8 bytes per worker holding a block).
func (c *Cluster) Sum(ctx context.Context, a *DistMatrix, stage int) (float64, error) {
	c.charge(ctx, Snapshot{FLOPs: cost.SumFLOPs(float64(a.Grid.NNZ()))})
	if err := c.collect(ctx, a, stage); err != nil {
		return 0, err
	}
	return matrix.SumGrid(a.Grid), nil
}

// Norm2 computes the Frobenius norm with the same collect cost as Sum.
func (c *Cluster) Norm2(ctx context.Context, a *DistMatrix, stage int) (float64, error) {
	c.charge(ctx, Snapshot{FLOPs: cost.Norm2FLOPs(float64(a.Grid.NNZ()))})
	if err := c.collect(ctx, a, stage); err != nil {
		return 0, err
	}
	return math.Sqrt(matrix.FrobeniusSqGrid(a.Grid)), nil
}

// Value extracts the single cell of a 1x1 matrix at the driver.
func (c *Cluster) Value(ctx context.Context, a *DistMatrix, stage int) (float64, error) {
	if a.Rows() != 1 || a.Cols() != 1 {
		return 0, fmt.Errorf("dist: value() on %dx%d matrix", a.Rows(), a.Cols())
	}
	if err := c.opFault(ctx); err != nil {
		return 0, err
	}
	if err := c.collect(ctx, a, stage); err != nil {
		return 0, err
	}
	return a.Grid.At(0, 0), nil
}
