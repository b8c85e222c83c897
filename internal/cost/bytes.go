package cost

import (
	"math"

	"dmac/internal/matrix"
)

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

// MinTaskEntries is the work floor of a block task: the expected stored
// entries a task must carry before its fixed cost (acquiring and zeroing its
// result block, entering the kernel, dispatch) is at most ~10 % of it.
// Measured on a 2-core AVX-512 Xeon, the fixed cost is f and the per-entry
// cost c of the cheapest kernel a served job runs, PageRank's rank %*% link:
//   - f: sched's BenchmarkBlockTaskFixedCost (rowvec, side 181, eight
//     executor threads) gives 0.76–0.97 µs of CPU a block product; the whole
//     stack of a served PageRank (engine, cluster, executor) gives 1.0–1.4 µs
//     a block of its link matrix, median 1.2.
//   - c: matrix's BenchmarkMulAddRowVecBlocks (serve_mix, avx512) gives
//     1.06–1.43 GFLOP/s at 2 flops an entry: 1.4–1.9 ns an entry, median 1.7.
//
// f ≤ 10 % of f + E·c needs E ≥ 9f/c: 6 400 entries at the whole stack's
// medians. 1 << 13 is the smallest power of two above it; over every pair
// of readings f is then 4.7–10.8 % of a task (1 << 12 leaves it at 15 % at
// the medians). Gram's t(V) %*% V pays more a product (~3.5 µs at side 45,
// mostly folding its dense result block) but far more an entry (12–22 ns,
// BenchmarkMulAddSSTN), and dense products more still an entry, so
// PageRank's kernel binds.
const MinTaskEntries = 1 << 13

// TaskThreads is how many of threads a matrix of rows x cols at the given
// expected density can keep busy: one per MinTaskEntries of its expected
// stored entries (EstNNZ), at least one and at most threads. Eq. 3 at this
// many threads cuts a matrix into no more blocks than its entries pay for.
func TaskThreads(rows, cols int, density float64, threads int) int {
	paid := math.Floor(EstNNZ(rows, cols, density) / MinTaskEntries)
	if !(paid >= 1) { // also NaN
		return 1
	}
	return int(min(paid, float64(max(threads, 1))))
}
