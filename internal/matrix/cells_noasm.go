//go:build !amd64

package matrix

// The AVX-512 loops are never called: cpu.avx512 is false here.

func binOpAVX512(op BinOp, dst, a, b *float64, n int) {
	panic("matrix: binOpAVX512 without AVX-512 support")
}

func scalarOpAVX512(op ScalarOp, dst, x *float64, c float64, n int) {
	panic("matrix: scalarOpAVX512 without AVX-512 support")
}

func countNonZeroAVX512(x *float64, n int) int64 {
	panic("matrix: countNonZeroAVX512 without AVX-512 support")
}

func flushSubnormalsAVX512(x *float64, n int) int64 {
	panic("matrix: flushSubnormalsAVX512 without AVX-512 support")
}

func expAVX512(f UFunc, dst, x *float64, n int) int {
	panic("matrix: expAVX512 without AVX-512 support")
}
