package dist

import (
	"context"
	"fmt"
	"math"
	"time"

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
	// shuffled and summed into the requested output scheme (cost N x |C|).
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
		if err := collectiveTurn(ctx); err != nil {
			return nil, err
		}
		// Shuffled aggregation of the per-worker partial products, across
		// the workers still alive: every alive worker ships its partial of
		// each output block to the block's owner.
		workers := int64(c.AliveWorkers())
		out.Scheme = outScheme
		sent := time.Now()
		wire, werr := c.transport.Scatter(ctx, "cpmm-shuffle", stage, c.scatterXfers(out, int(workers)))
		wireS := time.Since(sent).Seconds()
		if err := c.commFailure(werr, stage); err != nil {
			return nil, err
		}
		c.comm(ctx, stage, commCPMMShuffle, workers*out.Bytes(),
			obs.String("strategy", "CPMM"), obs.String("to_scheme", outScheme.String()),
			obs.Int64("workers", workers))
		c.verifyTransfer(ctx, out, stage, commCPMMShuffle)
		c.chargeWire(ctx, stage, commCPMMShuffle, wire, wireS)
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

// collect charges a tiny driver collect (8 bytes per alive worker) for an
// aggregate operator; on the wire it gathers one aggregate frame per alive
// worker. On one worker the aggregate is already whole there: nothing is
// sent or charged.
func (c *Cluster) collect(ctx context.Context, stage int) error {
	if c.whole() {
		return nil
	}
	if err := collectiveTurn(ctx); err != nil {
		return err
	}
	sent := time.Now()
	wire, err := c.transport.Collect(ctx, stage, c.aliveList())
	wireS := time.Since(sent).Seconds()
	if err := c.commFailure(err, stage); err != nil {
		return err
	}
	bytes := 8 * int64(c.AliveWorkers())
	c.comm(ctx, stage, commCollect, bytes)
	c.chargeWire(ctx, stage, commCollect, wire, wireS)
	return nil
}

// Sum computes the sum of all cells: local partials plus a tiny driver
// collect (8 bytes per alive worker).
func (c *Cluster) Sum(ctx context.Context, a *DistMatrix, stage int) (float64, error) {
	c.charge(ctx, Snapshot{FLOPs: cost.SumFLOPs(float64(a.Grid.NNZ()))})
	if err := c.collect(ctx, stage); err != nil {
		return 0, err
	}
	return matrix.SumGrid(a.Grid), nil
}

// Norm2 computes the Frobenius norm with the same collect cost as Sum.
func (c *Cluster) Norm2(ctx context.Context, a *DistMatrix, stage int) (float64, error) {
	c.charge(ctx, Snapshot{FLOPs: cost.Norm2FLOPs(float64(a.Grid.NNZ()))})
	if err := c.collect(ctx, stage); err != nil {
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
	if err := c.collect(ctx, stage); err != nil {
		return 0, err
	}
	return a.Grid.At(0, 0), nil
}
