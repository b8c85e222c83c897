package matrix

import (
	"fmt"
	"math"
)

// UFunc is a named element-wise unary function. Functions are enumerated
// (rather than arbitrary closures) so programs stay serializable and plans
// deterministic.
type UFunc int

// The element-wise functions supported by DMac programs.
const (
	// FuncSigmoid is 1/(1+e^-x) (logistic regression).
	FuncSigmoid UFunc = iota
	// FuncExp is e^x.
	FuncExp
	// FuncLog is the natural logarithm.
	FuncLog
	// FuncSqrt is the square root.
	FuncSqrt
	// FuncAbs is the absolute value.
	FuncAbs
	// FuncSign is -1/0/+1.
	FuncSign
)

// String names the function.
func (f UFunc) String() string {
	switch f {
	case FuncSigmoid:
		return "sigmoid"
	case FuncExp:
		return "exp"
	case FuncLog:
		return "log"
	case FuncSqrt:
		return "sqrt"
	case FuncAbs:
		return "abs"
	case FuncSign:
		return "sign"
	default:
		return fmt.Sprintf("UFunc(%d)", int(f))
	}
}

// Valid reports whether f is a known function.
func (f UFunc) Valid() bool { return f >= FuncSigmoid && f <= FuncSign }

// Apply evaluates the function at x: the per-cell definition that
// applyInto's loops are held to.
func (f UFunc) Apply(x float64) float64 {
	switch f {
	case FuncSigmoid:
		return 1 / (1 + math.Exp(-x))
	case FuncExp:
		return math.Exp(x)
	case FuncLog:
		return math.Log(x)
	case FuncSqrt:
		return math.Sqrt(x)
	case FuncAbs:
		return math.Abs(x)
	case FuncSign:
		switch {
		case x > 0:
			return 1
		case x < 0:
			return -1
		default:
			return 0
		}
	default:
		panic("matrix: unknown UFunc")
	}
}

// SparsityPreserving reports whether f maps zero to zero, allowing sparse
// blocks to stay sparse.
func (f UFunc) SparsityPreserving() bool {
	switch f {
	case FuncSqrt, FuncAbs, FuncSign:
		return true
	default: // sigmoid(0)=0.5, exp(0)=1, log(0)=-Inf
		return false
	}
}

// applyInto computes dst[i] = f(src[i]) with one tight loop per function:
// the function is decided once per block, not once per cell. Each loop body
// is Apply's case for that function, so the results are Apply's bit for bit.
// dst and src may be the same slice.
func (f UFunc) applyInto(dst, src []float64) {
	src = src[:len(dst)]
	switch f {
	case FuncSigmoid:
		for i, x := range src {
			dst[i] = 1 / (1 + math.Exp(-x))
		}
	case FuncExp:
		for i, x := range src {
			dst[i] = math.Exp(x)
		}
	case FuncLog:
		for i, x := range src {
			dst[i] = math.Log(x)
		}
	case FuncSqrt:
		for i, x := range src {
			dst[i] = math.Sqrt(x)
		}
	case FuncAbs:
		for i, x := range src {
			dst[i] = math.Abs(x)
		}
	case FuncSign:
		for i, x := range src {
			switch {
			case x > 0:
				dst[i] = 1
			case x < 0:
				dst[i] = -1
			default:
				dst[i] = 0
			}
		}
	default:
		panic("matrix: unknown UFunc")
	}
}

// ApplyBlock returns a new block with f applied to every cell. Sparse blocks
// stay sparse when f preserves zeros; otherwise the result densifies.
func ApplyBlock(f UFunc, b Block) Block {
	if s, ok := b.(*CSCBlock); ok && f.SparsityPreserving() {
		out := s.Clone().(*CSCBlock)
		f.applyInto(out.Values, out.Values)
		return out
	}
	out := NewDense(b.Rows(), b.Cols())
	f.applyInto(out.Data, b.Dense().Data)
	return out
}

// ApplyGrid applies f to every block of a grid.
func ApplyGrid(f UFunc, g *Grid) *Grid {
	out := NewGrid(g.Rows(), g.Cols(), g.BlockSize())
	for bi := 0; bi < g.BlockRows(); bi++ {
		for bj := 0; bj < g.BlockCols(); bj++ {
			out.SetBlock(bi, bj, ApplyBlock(f, g.Block(bi, bj)))
		}
	}
	return out
}
