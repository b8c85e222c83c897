//go:build amd64

package matrix

// axpyAVX is the AVX implementation of axpyGo: y[0:n] += alpha * x[0:n]
// (bit-identical results), gated by cpu.avx (see cpuFeatures).
// Implemented in axpy_amd64.s.
//
//go:noescape
func axpyAVX(alpha float64, x, y *float64, n int)
