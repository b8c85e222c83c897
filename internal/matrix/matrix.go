// Package matrix provides the block-based matrix substrate used by DMac.
//
// Matrices are split into rectangular blocks (sub-matrices); a block is the
// base unit of local computation and of distributed placement. Dense blocks
// store a row-major float64 array, sparse blocks use the Compressed Sparse
// Column (CSC) format described in Section 5.3 of the DMac paper.
//
// All block operations are pure functions or explicit in-place kernels so
// that the scheduler (internal/sched) can choose between the Buffer and
// In-Place aggregation strategies.
package matrix

import (
	"errors"
	"fmt"
)

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("matrix: incompatible shapes")

// Block is a sub-matrix, the base computing unit in DMac.
//
// Implementations are DenseBlock and CSCBlock. Blocks are immutable from the
// point of view of shared readers; only kernels that document in-place
// semantics (e.g. MulAddTransInto) mutate a block, and they require exclusive
// ownership of the destination.
type Block interface {
	// Rows returns the number of rows in the block.
	Rows() int
	// Cols returns the number of columns in the block.
	Cols() int
	// At returns the element at row i, column j. It panics if out of range.
	At(i, j int) float64
	// NNZ returns the number of explicitly stored non-zero elements.
	NNZ() int
	// MemBytes returns the memory footprint of the block in bytes, following
	// the accounting of Eq. 2 in the paper (see mem.go for the exact model).
	MemBytes() int64
	// IsSparse reports whether the block uses the CSC representation.
	IsSparse() bool
	// Dense returns a dense copy of the block (the receiver itself when it
	// is already a *DenseBlock).
	Dense() *DenseBlock
	// Transpose returns a new transposed block in the same representation.
	Transpose() Block
	// Clone returns a deep copy of the block.
	Clone() Block
	// Scale returns a new block with every element multiplied by alpha.
	Scale(alpha float64) Block
}

func checkSameShape(a, b Block) error {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return fmt.Errorf("%w: %dx%d vs %dx%d", ErrShape, a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	return nil
}

// blocksFor returns the number of blocks needed to cover dim elements with
// blocks of size bs.
func blocksFor(dim, bs int) int {
	if dim == 0 {
		return 0
	}
	return (dim + bs - 1) / bs
}
