package matrix

import "math"

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

// Sparsity returns NNZ / (rows*cols), the fraction of stored elements.
func Sparsity(b Block) float64 {
	cells := b.Rows() * b.Cols()
	if cells == 0 {
		return 0
	}
	return float64(b.NNZ()) / float64(cells)
}
