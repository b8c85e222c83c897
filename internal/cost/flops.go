package cost

import (
	"math"

	"dmac/internal/matrix"
)

// MulFLOPs estimates a product's arithmetic with the sparsity model of
// Section 5.1 from the operands' stored-element counts: B's nnzB elements
// spread over inner rows. inner is the logical inner dimension, so a
// transposed view costs what its materialized counterpart would.
func MulFLOPs(nnzA, nnzB, inner int) float64 {
	if inner <= 0 {
		return 0
	}
	return MulFLOPsPerRow(nnzA, float64(nnzB)/float64(inner))
}

// MulFLOPsPerRow is the Section 5.1 model itself: each of A's nnzA stored
// elements meets the stored elements of one row of B — perRowB of them on
// average, at least one — at a multiply-add (2 flops) each. Callers that know
// the density by construction (a generated graph's average degree) pass it.
func MulFLOPsPerRow(nnzA int, perRowB float64) float64 {
	return 2 * float64(nnzA) * math.Max(perRowB, 1)
}

// DenseMulFLOPs is the arithmetic of an m x k by k x n product at its dense
// worst case, 2mkn. The rewriter compares chain orders with it so the choice
// does not depend on a refinable sparsity estimate.
func DenseMulFLOPs(m, k, n int) float64 { return 2 * float64(m) * float64(k) * float64(n) }

// EstNNZ is the worst-case stored-element count of a rows x cols matrix with
// the given worst-case sparsity (Section 5.1); at sparsity 1, every cell.
func EstNNZ(rows, cols int, sparsity float64) float64 {
	return sparsity * float64(rows) * float64(cols)
}

// The remaining operators cost a coefficient per element. Those that touch
// every cell take the shape; those that touch stored elements take a count:
// the measured NNZ when executing, EstNNZ when predicting.

// CellwiseFLOPs: a cell-wise binary operator costs 1 per cell of the result.
func CellwiseFLOPs(rows, cols int) float64 { return float64(rows) * float64(cols) }

// UFuncFLOPs: a named element-wise function (exp, log, sigmoid, ...) costs a
// transcendental-ish 4 per cell.
func UFuncFLOPs(rows, cols int) float64 { return 4 * float64(rows) * float64(cols) }

// ScalarFLOPs: a matrix-scalar operator costs 1 per element.
func ScalarFLOPs(elems float64) float64 { return elems }

// CellLinkFLOPs prices one link of a cell-wise tree over a rows x cols matrix
// as the single operator it is; elems is the element count of a scalar link's
// operand. A fused operator costs the sum over its links.
func CellLinkFLOPs(kind matrix.CellLinkKind, rows, cols int, elems float64) float64 {
	switch kind {
	case matrix.LinkBin:
		return CellwiseFLOPs(rows, cols)
	case matrix.LinkScalar:
		return ScalarFLOPs(elems)
	default:
		return UFuncFLOPs(rows, cols)
	}
}

// SumFLOPs: summing a matrix costs 1 per element.
func SumFLOPs(elems float64) float64 { return elems }

// Norm2FLOPs: a Frobenius norm costs a square and an add per element.
func Norm2FLOPs(elems float64) float64 { return 2 * elems }

// TransposeFLOPs: a transposed read costs 1 per element, whether the
// transpose is materialized or fused into the consuming kernel.
func TransposeFLOPs(elems float64) float64 { return elems }
