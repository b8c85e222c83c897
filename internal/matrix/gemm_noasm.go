//go:build !amd64

package matrix

// detectCPU finds no vector features on architectures without assembly
// kernels.
func detectCPU() cpuFeatures { return cpuFeatures{} }

// gemmKernelsFor lists the pure-Go micro-kernel: the only one here.
func gemmKernelsFor(cpuFeatures) []gemmKernel { return []gemmKernel{gemmGoKernel} }
