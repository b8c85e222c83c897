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
// the function is decided once per block, not once per cell. dst and src may
// be the same slice. Where expLanes holds, the whole groups of eight cells of
// exp and sigmoid run in expAVX512, each lane math.Exp's own instructions;
// a group holding a lane math.Exp sends off its main path, like the last
// len(dst)%8 cells, runs in the Go loop. Either way the results are Apply's
// bit for bit.
func (f UFunc) applyInto(dst, src []float64) {
	src = src[:len(dst)]
	if k := len(dst) &^ 7; k > 0 && (f == FuncSigmoid || f == FuncExp) && expLanes() {
		for i := 0; i < k; {
			i += expAVX512(f, &dst[i], &src[i], k-i)
			if i < k {
				f.applyGo(dst[i:i+8], src[i:i+8])
				i += 8
			}
		}
		dst, src = dst[k:], src[k:]
	}
	f.applyGo(dst, src)
}

// applyGo is applyInto's Go loops, one per function. Each loop body is
// Apply's case for that function.
func (f UFunc) applyGo(dst, src []float64) {
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

// expLanes reports whether exp and sigmoid run in expAVX512: on AVX-512 with
// FMA, and only if math.Exp takes its FMA path in this process.
func expLanes() bool { return cpu.avx512 && cpu.fma && expLanesExact }

// expLanesExact records, once at start-up, whether expAVX512 gives math.Exp's
// bits. It computes math.Exp's FMA path, which math takes only when its own
// CPU check finds FMA; GODEBUG=cpu.fma=off turns that check off, and this
// package's CPUID probe does not see it.
var expLanesExact = cpu.avx512 && cpu.fma && expLanesMatch()

// expProbes are arguments at which math.Exp's FMA and non-FMA paths round
// one ulp apart, all on the main path of both.
var expProbes = [8]float64{
	-0.33118013654459677, 0.6245059811312585, -6.554564311425738, -3.082243791399175,
	-1.0728065584596485, 3.8971326555544863, -7.97184947996593, 2.4833654887538654,
}

// expLanesMatch runs expAVX512 over expProbes and reports whether every
// result is math.Exp's, bit for bit.
func expLanesMatch() bool {
	var got [len(expProbes)]float64
	if expAVX512(FuncExp, &got[0], &expProbes[0], len(got)) != len(got) {
		return false
	}
	for i, x := range expProbes {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	return true
}

// ApplyBlock returns a new block with f applied to every cell. Sparse blocks
// stay sparse when f preserves zeros; otherwise the result densifies, in
// place over the dense copy of a sparse block.
func ApplyBlock(f UFunc, b Block) Block {
	if s, ok := b.(*CSCBlock); ok {
		if f.SparsityPreserving() {
			out := s.Clone().(*CSCBlock)
			f.applyInto(out.Values, out.Values)
			return out
		}
		out := s.Dense()
		f.applyInto(out.Data, out.Data)
		return out
	}
	out := NewDense(b.Rows(), b.Cols())
	f.applyInto(out.Data, b.Dense().Data)
	return out
}
