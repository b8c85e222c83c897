//go:build !amd64

package matrix

// axpyAVX is never called: cpu.avx is false here.
func axpyAVX(alpha float64, x, y *float64, n int) {
	panic("matrix: axpyAVX without AVX support")
}
