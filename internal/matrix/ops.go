package matrix

// BinOp identifies a cell-wise binary operation between two blocks of the
// same shape. These are the element-wise operators of the DMac language:
// +, -, * (cell-wise multiplication) and / (cell-wise division).
type BinOp int

// The cell-wise binary operators supported by DMac (Section 3.1).
const (
	OpAdd BinOp = iota
	OpSub
	OpCellMul
	OpCellDiv
)

// String returns the R-like symbol of the operator.
func (op BinOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpCellMul:
		return "*"
	case OpCellDiv:
		return "/"
	default:
		return "?"
	}
}

// applyInto computes dst[i] = a[i] op b[i] with one tight loop per operator:
// the operator is decided once per block, not once per cell. dst may alias a
// or b. On AVX-512 the whole groups of eight cells run in binOpAVX512, each
// lane the Go loop's operation, and the Go loop takes the last len(dst)%8.
func (op BinOp) applyInto(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	if k := len(dst) &^ 7; k > 0 && cpu.avx512 {
		binOpAVX512(op, &dst[0], &a[0], &b[0], k)
		dst, a, b = dst[k:], a[k:], b[k:]
	}
	switch op {
	case OpAdd:
		for i := range dst {
			dst[i] = a[i] + b[i]
		}
	case OpSub:
		for i := range dst {
			dst[i] = a[i] - b[i]
		}
	case OpCellMul:
		for i := range dst {
			dst[i] = a[i] * b[i]
		}
	case OpCellDiv:
		for i := range dst {
			dst[i] = a[i] / b[i]
		}
	default:
		panic("matrix: unknown BinOp")
	}
}

// Cellwise applies op element-wise to two blocks of identical shape and
// returns a new block. Sparse*sparse multiplication stays sparse
// (intersection of patterns); every other combination densifies, matching
// the worst-case sparsity model of Section 5.1.
func Cellwise(op BinOp, a, b Block) (Block, error) {
	if err := checkSameShape(a, b); err != nil {
		return nil, err
	}
	sa, okA := a.(*CSCBlock)
	sb, okB := b.(*CSCBlock)
	if okA && okB && op == OpCellMul {
		return cellMulSparse(sa, sb), nil
	}
	da, db := a.Dense(), b.Dense()
	out := NewDense(a.Rows(), a.Cols())
	op.applyInto(out.Data, da.Data, db.Data)
	return out, nil
}

// cellMulSparse intersects the sparsity patterns of two CSC blocks.
func cellMulSparse(a, b *CSCBlock) *CSCBlock {
	out := &CSCBlock{rows: a.rows, cols: a.cols, ColPtr: make([]int32, a.cols+1)}
	for j := 0; j < a.cols; j++ {
		ka, ea := a.ColPtr[j], a.ColPtr[j+1]
		kb, eb := b.ColPtr[j], b.ColPtr[j+1]
		for ka < ea && kb < eb {
			switch {
			case a.RowIdx[ka] < b.RowIdx[kb]:
				ka++
			case a.RowIdx[ka] > b.RowIdx[kb]:
				kb++
			default:
				out.RowIdx = append(out.RowIdx, a.RowIdx[ka])
				out.Values = append(out.Values, a.Values[ka]*b.Values[kb])
				ka++
				kb++
			}
		}
		out.ColPtr[j+1] = int32(len(out.Values))
	}
	return out
}

// ScalarOp identifies an operation between a block and a scalar constant
// (the unary operator of Section 3.1).
type ScalarOp int

// Scalar operators: X*c, X+c, X-c, X/c, c-X and c/X.
const (
	ScalarMul ScalarOp = iota
	ScalarAdd
	ScalarSub
	ScalarDiv
	ScalarRSub // c - X
	ScalarRDiv // c / X
)

// String returns a printable name for the scalar operator.
func (op ScalarOp) String() string {
	switch op {
	case ScalarMul:
		return "*c"
	case ScalarAdd:
		return "+c"
	case ScalarSub:
		return "-c"
	case ScalarDiv:
		return "/c"
	case ScalarRSub:
		return "c-"
	case ScalarRDiv:
		return "c/"
	default:
		return "?c"
	}
}

// applyInto computes dst[i] = x[i] op c (c op x[i] for the reversed
// operators) with one tight loop per operator; dst may alias x. On AVX-512
// the whole groups of eight cells run in scalarOpAVX512, as BinOp.applyInto's
// do.
func (op ScalarOp) applyInto(dst, x []float64, c float64) {
	x = x[:len(dst)]
	if k := len(dst) &^ 7; k > 0 && cpu.avx512 {
		scalarOpAVX512(op, &dst[0], &x[0], c, k)
		dst, x = dst[k:], x[k:]
	}
	switch op {
	case ScalarMul:
		for i := range dst {
			dst[i] = x[i] * c
		}
	case ScalarAdd:
		for i := range dst {
			dst[i] = x[i] + c
		}
	case ScalarSub:
		for i := range dst {
			dst[i] = x[i] - c
		}
	case ScalarDiv:
		for i := range dst {
			dst[i] = x[i] / c
		}
	case ScalarRSub:
		for i := range dst {
			dst[i] = c - x[i]
		}
	case ScalarRDiv:
		for i := range dst {
			dst[i] = c / x[i]
		}
	default:
		panic("matrix: unknown ScalarOp")
	}
}

// SparsityPreserving reports whether applying the operator with constant c
// maps zero cells to zero, allowing a sparse block to stay sparse.
func (op ScalarOp) SparsityPreserving(c float64) bool {
	switch op {
	case ScalarMul, ScalarDiv:
		return true
	case ScalarAdd, ScalarSub:
		return c == 0
	case ScalarRSub:
		return c == 0
	default: // ScalarRDiv maps 0 -> c/0: never preserving.
		return false
	}
}

// Scalar applies a block-scalar operation and returns a new block. Sparse
// blocks stay sparse when the operation preserves zeros; otherwise the
// result densifies.
func Scalar(op ScalarOp, a Block, c float64) Block {
	if s, ok := a.(*CSCBlock); ok {
		if op.SparsityPreserving(c) {
			out := s.Clone().(*CSCBlock)
			op.applyInto(out.Values, out.Values, c)
			return out
		}
		out := s.Dense()
		op.applyInto(out.Data, out.Data, c)
		return out
	}
	out := NewDense(a.Rows(), a.Cols())
	op.applyInto(out.Data, a.Dense().Data, c)
	return out
}

// Sum returns the sum of all elements of a block.
func Sum(b Block) float64 {
	switch t := b.(type) {
	case *DenseBlock:
		return t.Sum()
	case *CSCBlock:
		return t.Sum()
	default:
		s := 0.0
		for i := 0; i < b.Rows(); i++ {
			for j := 0; j < b.Cols(); j++ {
				s += b.At(i, j)
			}
		}
		return s
	}
}

// FrobeniusSq returns the squared Frobenius norm (sum of squared cells). Each
// square is rounded before it is added, on every architecture (see mul.go).
func FrobeniusSq(b Block) float64 {
	switch t := b.(type) {
	case *DenseBlock:
		s := 0.0
		for _, v := range t.Data {
			s += float64(v * v)
		}
		return s
	case *CSCBlock:
		s := 0.0
		for _, v := range t.Values {
			s += float64(v * v)
		}
		return s
	default:
		s := 0.0
		for i := 0; i < b.Rows(); i++ {
			for j := 0; j < b.Cols(); j++ {
				v := b.At(i, j)
				s += float64(v * v)
			}
		}
		return s
	}
}
