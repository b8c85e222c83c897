//go:build amd64

package matrix

// The AVX-512 loops of the dense cell-wise operators (cells_amd64.s, and
// subnormal_amd64.s for the flush), gated by cpu.avx512: binOpAVX512 and
// scalarOpAVX512 run the whole groups of eight cells of BinOp.applyInto and
// ScalarOp.applyInto, countNonZeroAVX512 those of countNonZero and
// flushSubnormalsAVX512 those of FlushSubnormals.
// Each lane performs the Go loop's operation on the same operands in the
// same order. expAVX512, gated by expLanesExact on top, runs those of
// UFunc.applyInto for exp and sigmoid, each lane math.Exp's FMA path.

//go:noescape
func binOpAVX512(op BinOp, dst, a, b *float64, n int)

//go:noescape
func scalarOpAVX512(op ScalarOp, dst, x *float64, c float64, n int)

//go:noescape
func countNonZeroAVX512(x *float64, n int) int64

//go:noescape
func flushSubnormalsAVX512(x *float64, n int) int64

//go:noescape
func expAVX512(f UFunc, dst, x *float64, n int) int
