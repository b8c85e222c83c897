// Package scidb simulates the SciDB baseline of Section 6.6: an array
// database whose linear-algebra operators delegate to ScaLAPACK.
//
// The paper attributes SciDB's slowness on matrix multiplication to two
// overheads on top of the ScaLAPACK compute itself, both modelled here:
//
//   - before the operation, the chunk-based storage must be redistributed
//     into ScaLAPACK's block-cyclic layout (and the result written back to
//     chunks), moving the dense footprint of the operands across instances;
//   - the system maintains failure-handling/versioning machinery during the
//     computation, which taxes every chunk processed.
package scidb

import (
	"fmt"

	"dmac/internal/baselines/scalapack"
	"dmac/internal/cost"
	"dmac/internal/matrix"
)

// Config describes the simulated SciDB deployment.
type Config struct {
	// ScaLAPACK configures the delegated compute.
	ScaLAPACK scalapack.Config
	// ChunkSize is the side of a storage chunk. Defaults to the input's
	// block size.
	ChunkSize int
	// ChunkOverheadSec is the failure-handling/versioning cost per chunk
	// touched. Defaults to 5 ms.
	ChunkOverheadSec float64
	// RedistBandwidthBytesPerSec is the bandwidth of the chunk
	// redistribution path (storage-mediated, slower than the MPI
	// interconnect). Defaults to 256 MiB/s.
	RedistBandwidthBytesPerSec float64
}

func (c Config) withDefaults(bs int) Config {
	if c.ChunkSize <= 0 {
		c.ChunkSize = bs
	}
	if c.ChunkOverheadSec <= 0 {
		c.ChunkOverheadSec = 5e-3
	}
	if c.RedistBandwidthBytesPerSec <= 0 {
		c.RedistBandwidthBytesPerSec = 256 << 20
	}
	return c
}

// Result reports a simulated SciDB operation.
type Result struct {
	// Grid is the computed product.
	Grid *matrix.Grid
	// CommBytes includes both the redistribution and the delegated
	// ScaLAPACK traffic.
	CommBytes int64
	// Chunks is the number of chunks touched (inputs and output).
	Chunks int
	// ModelSeconds is the modelled end-to-end time.
	ModelSeconds float64
	// WallSeconds is the measured time of the real computation.
	WallSeconds float64
	// ScaLAPACK is the delegated compute's own result.
	ScaLAPACK scalapack.Result
}

func chunksOf(rows, cols, chunk int) int {
	cr := (rows + chunk - 1) / chunk
	cc := (cols + chunk - 1) / chunk
	return cr * cc
}

// Multiply runs a simulated SciDB gemm(): redistribute, delegate to
// ScaLAPACK, write back.
func Multiply(a, b *matrix.Grid, cfg Config) (Result, error) {
	if a.Cols() != b.Rows() {
		return Result{}, fmt.Errorf("scidb: shapes %dx%d * %dx%d", a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	cfg = cfg.withDefaults(a.BlockSize())
	inner, err := scalapack.Multiply(a, b, cfg.ScaLAPACK)
	if err != nil {
		return Result{}, err
	}
	// Redistribution moves the dense footprint of both operands in, and the
	// result out (SciDB stores arrays densely chunked for these operators).
	redist := matrix.DenseMemBytes(a.Rows(), a.Cols()) + matrix.DenseMemBytes(b.Rows(), b.Cols()) + matrix.DenseMemBytes(a.Rows(), b.Cols())
	chunks := chunksOf(a.Rows(), a.Cols(), cfg.ChunkSize) +
		chunksOf(b.Rows(), b.Cols(), cfg.ChunkSize) +
		chunksOf(a.Rows(), b.Cols(), cfg.ChunkSize)
	// The redistribution path is a network of its own: slower, and taxed per
	// chunk instead of per shuffle.
	storage := cost.Rates{BandwidthBytesPerSec: cfg.RedistBandwidthBytesPerSec, ShuffleLatencySec: cfg.ChunkOverheadSec}
	model := inner.ModelSeconds + storage.NetworkSec(redist, chunks)
	return Result{
		Grid:         inner.Grid,
		CommBytes:    redist + inner.CommBytes,
		Chunks:       chunks,
		ModelSeconds: model,
		WallSeconds:  inner.WallSeconds,
		ScaLAPACK:    inner,
	}, nil
}
