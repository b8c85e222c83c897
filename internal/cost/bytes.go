package cost

import "dmac/internal/matrix"

// SparseThreshold is the worst-case sparsity at and above which a matrix is
// assumed to be materialized densely. With the CSC cost of ~12 bytes per
// non-zero and 8 bytes per dense cell, the representations break even at
// s = 2/3; the engine switches a bit earlier.
const SparseThreshold = 0.5

// SizeBytes is the worst-case size estimate |A| of the dependency cost model
// (Section 5.1): the byte footprint of a rows x cols matrix with the given
// worst-case sparsity, in whichever representation the engine would pick.
func SizeBytes(rows, cols int, sparsity float64) int64 {
	sparsity = min(max(sparsity, 0), 1)
	if sparsity < SparseThreshold {
		return matrix.SparseMemBytes(cols, int(EstNNZ(rows, cols, sparsity)))
	}
	return matrix.DenseMemBytes(rows, cols)
}

// GridBytes is the footprint of a rows x cols matrix with the given sparsity
// once partitioned into blockSize-square blocks, following Eq. 2 of the
// paper: the row index and value arrays are invariant under partitioning,
// while every block contributes its own column-pointer array, so smaller
// blocks cost more. A dense matrix costs the same at every block size.
func GridBytes(rows, cols int, sparsity float64, blockSize int) int64 {
	if sparsity >= SparseThreshold {
		return matrix.DenseMemBytes(rows, cols)
	}
	blocks := func(dim int) int64 { return int64((dim + blockSize - 1) / blockSize) }
	// A CSC block stores 4 bytes per column plus 4 (matrix.SparseMemBytes),
	// and each block-row spans all cols in blocks(cols) blocks; stored
	// elements cost 12 bytes wherever the block boundaries fall.
	colPtrBytes := 4 * blocks(rows) * (int64(cols) + blocks(cols))
	return colPtrBytes + 12*int64(EstNNZ(rows, cols, sparsity))
}
