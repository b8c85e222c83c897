// Package scalapack simulates the ScaLAPACK baseline of Section 6.6: a
// distributed dense linear-algebra library over MPI with a two-dimensional
// block-cyclic data layout.
//
// The two behaviours the paper attributes to ScaLAPACK are modelled
// faithfully:
//
//   - sparse inputs are handled "the way on dense ones": the simulation
//     densifies operands, so arithmetic and traffic are independent of
//     sparsity (the MM-Sparse and MM-Dense rows of Table 4 come out almost
//     identical);
//   - processes exchange data through messages rather than shared memory: a
//     SUMMA-style multiplication broadcasts row panels of A and column
//     panels of B across the process grid, paying per-message latency.
//
// The multiplication itself is executed for real (densified), so results
// can be verified against the DMac engines.
package scalapack

import (
	"context"
	"fmt"
	"time"

	"dmac/internal/cost"
	"dmac/internal/matrix"
	"dmac/internal/sched"
)

// Config describes the simulated ScaLAPACK deployment.
type Config struct {
	// ProcRows x ProcCols is the process grid (P x Q). The paper uses 8
	// nodes x 8 processes = 64 processes, an 8x8 grid.
	ProcRows, ProcCols int
	// Rates price the model: a process computes at the per-thread flop rate
	// and every MPI broadcast step pays the per-event latency. Unset rates
	// take cost.Production's, except the latency, which defaults to 1 ms (a
	// message, not a Spark stage).
	Rates cost.Rates
	// LocalParallelism bounds the threads used for the real computation
	// (not part of the model). Defaults to the number of processes.
	LocalParallelism int
}

func (c Config) withDefaults() Config {
	if c.ProcRows <= 0 {
		c.ProcRows = 8
	}
	if c.ProcCols <= 0 {
		c.ProcCols = 8
	}
	defaults := cost.Production()
	defaults.ShuffleLatencySec = 1e-3
	c.Rates = c.Rates.Or(defaults)
	if c.LocalParallelism <= 0 {
		c.LocalParallelism = c.ProcRows * c.ProcCols
	}
	return c
}

// Result reports a simulated ScaLAPACK operation.
type Result struct {
	// Grid is the computed product.
	Grid *matrix.Grid
	// CommBytes is the modelled message traffic.
	CommBytes int64
	// Messages is the modelled number of broadcast steps.
	Messages int
	// FLOPs is the modelled arithmetic (dense, sparsity-oblivious).
	FLOPs float64
	// ModelSeconds is the modelled execution time.
	ModelSeconds float64
	// WallSeconds is the measured time of the real computation.
	WallSeconds float64
}

// densify returns a dense copy of the grid (ScaLAPACK has no sparse
// representation for PDGEMM).
func densify(g *matrix.Grid) *matrix.Grid {
	out := matrix.NewDenseGrid(g.Rows(), g.Cols(), g.BlockSize())
	for bi := 0; bi < g.BlockRows(); bi++ {
		for bj := 0; bj < g.BlockCols(); bj++ {
			out.SetBlock(bi, bj, g.Block(bi, bj).Dense().Clone())
		}
	}
	return out
}

// Multiply runs a simulated PDGEMM: C = A * B.
func Multiply(a, b *matrix.Grid, cfg Config) (Result, error) {
	if a.Cols() != b.Rows() {
		return Result{}, fmt.Errorf("scalapack: shapes %dx%d * %dx%d", a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	cfg = cfg.withDefaults()
	start := time.Now()
	da, db := densify(a), densify(b)
	exec := sched.NewExecutor(cfg.LocalParallelism, nil)
	grid, err := exec.MulTrans(context.Background(), da, db, false, false, sched.InPlace)
	if err != nil {
		return Result{}, err
	}
	wall := time.Since(start).Seconds()

	p, q := cfg.ProcRows, cfg.ProcCols
	flops := cost.DenseMulFLOPs(a.Rows(), a.Cols(), b.Cols())
	// SUMMA communication volume: every A panel is broadcast across its
	// process row (q-1 copies), every B panel across its process column
	// (p-1 copies), at the dense footprint whatever the input's sparsity.
	bytesA := matrix.DenseMemBytes(a.Rows(), a.Cols()) * int64(q-1)
	bytesB := matrix.DenseMemBytes(b.Rows(), b.Cols()) * int64(p-1)
	panels := a.BlockCols()
	if panels < 1 {
		panels = 1
	}
	messages := panels * (p + q)
	model := cfg.Rates.ComputeSec(flops, p*q, 1) + cfg.Rates.NetworkSec(bytesA+bytesB, messages)
	return Result{
		Grid:         grid,
		CommBytes:    bytesA + bytesB,
		Messages:     messages,
		FLOPs:        flops,
		ModelSeconds: model,
		WallSeconds:  wall,
	}, nil
}
