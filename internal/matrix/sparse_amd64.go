//go:build amd64

package matrix

// The AVX-512 routines of the sparse x dense kernels (sparse_amd64.s), gated
// by cpu.avx512: gatherAVX512 is gather's loop of axpys with the lanes held
// in registers, rowDotAVX512 the row-dot's column loop eight columns a
// register, packTransAVX512 and addTileAVX512 are the 8x8-block forms of
// packTransGo and addTileGo. All four are bit-identical to the Go loops.

//go:noescape
func gatherAVX512(y, x *float64, rows *int32, vals *float64, nnz, lanes, xrows int, load bool) (ok bool)

//go:noescape
func rowDotAVX512(drow, arow *float64, colPtr, rowIdx *int32, vals *float64, groups, nnz, lda int) (ok bool)

//go:noescape
func packTransAVX512(buf *float64, ldb int, src *float64, ld, blocks int)

//go:noescape
func addTileAVX512(d *float64, ld int, acc *float64, n, blocks int)
