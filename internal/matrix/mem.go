package matrix

// Memory accounting follows the block memory model of Section 5.3:
//
//	Mem(b) = 4n + 8mns   (sparse m x n block with sparsity s)
//	Mem(b) = 4mn         (dense)
//
// The paper's constants assume 4-byte column pointers, a per-non-zero cost of
// 8 bytes, and 4-byte dense cells. This implementation stores float64 values
// and explicit 4-byte row indices, so the constants below are 4(n+1) + 12·nnz
// for sparse and 8·mn for dense. The *structure* of the model — a per-column
// pointer term that is duplicated across blocks, plus a per-element term that
// is invariant under blocking — is exactly the paper's, which is what drives
// the block-size experiments (Figure 8b).

// SparseMemBytes returns the memory footprint of a CSC block with the given
// number of columns and stored elements.
func SparseMemBytes(cols, nnz int) int64 {
	return 4*int64(cols+1) + 12*int64(nnz)
}

// DenseMemBytes returns the memory footprint of a dense rows x cols block.
func DenseMemBytes(rows, cols int) int64 {
	return 8 * int64(rows) * int64(cols)
}

// TransMemBytes returns the memory footprint the transpose of b would have if
// materialized. Dense blocks are symmetric under transposition; sparse blocks
// swap the per-column pointer term to the other dimension. Lazy transpose
// views use this so their byte accounting matches a materialized transpose
// exactly.
func TransMemBytes(b Block) int64 {
	if b.IsSparse() {
		return SparseMemBytes(b.Rows(), b.NNZ())
	}
	return b.MemBytes()
}
