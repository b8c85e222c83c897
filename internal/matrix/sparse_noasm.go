//go:build !amd64

package matrix

// The AVX-512 routines are never called: cpu.avx512 is false here.

func gatherAVX512(y, x *float64, rows *int32, vals *float64, nnz, lanes, xrows int, load bool) (ok bool) {
	panic("matrix: gatherAVX512 without AVX-512 support")
}

func packTransAVX512(buf *float64, ldb int, src *float64, ld, blocks int) {
	panic("matrix: packTransAVX512 without AVX-512 support")
}

func addTileAVX512(d *float64, ld int, acc *float64, n, blocks int) {
	panic("matrix: addTileAVX512 without AVX-512 support")
}
