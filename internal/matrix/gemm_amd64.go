//go:build amd64

package matrix

// cpuid executes CPUID with the given leaf (EAX) and sub-leaf (ECX), and
// xgetbv reads XCR0. Implemented in gemm_amd64.s.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// detectCPU probes the running CPU and OS.
func detectCPU() cpuFeatures {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, leaf1ECX, _ := cpuid(1, 0)
	var leaf7EBX, xcr0 uint32
	if maxLeaf >= 7 {
		_, leaf7EBX, _, _ = cpuid(7, 0)
	}
	if leaf1ECX&cpuidOSXSAVE != 0 {
		xcr0, _ = xgetbv()
	}
	return decodeCPU(leaf1ECX, leaf7EBX, xcr0)
}

const (
	cpuidFMA     = 1 << 12 // CPUID.1:ECX
	cpuidOSXSAVE = 1 << 27 // CPUID.1:ECX
	cpuidAVX     = 1 << 28 // CPUID.1:ECX
	cpuidAVX512F = 1 << 16 // CPUID.(7,0):EBX
	xcr0YMM      = 0x06    // XMM (1) | YMM (2) state enabled
	xcr0ZMM      = 0xe0    // opmask (5) | ZMM0-15 high halves (6) | ZMM16-31 (7)
)

// decodeCPU turns the raw probe results into features. A vector width counts
// only when the CPU has the instructions and the OS saves the registers they
// use across context switches: XCR0 bits 1-2 for any YMM instruction, bits
// 5-7 on top for any ZMM one. FMA3 is a YMM extension of its own (AVX-only
// parts such as Sandy and Ivy Bridge lack it), so it needs the YMM check too;
// AVX-512F carries the ZMM fused multiply-add itself.
func decodeCPU(leaf1ECX, leaf7EBX, xcr0 uint32) cpuFeatures {
	var f cpuFeatures
	f.avx = leaf1ECX&(cpuidOSXSAVE|cpuidAVX) == cpuidOSXSAVE|cpuidAVX && xcr0&xcr0YMM == xcr0YMM
	f.fma = f.avx && leaf1ECX&cpuidFMA != 0
	f.avx512 = f.avx && leaf7EBX&cpuidAVX512F != 0 && xcr0&xcr0ZMM == xcr0ZMM
	return f
}

// The assembly micro-kernels (gemm_amd64.s): bit-identical to gemmMicroGo.
//
//go:noescape
func gemmMicroAVX(c []float64, ldc int, ap, bp []float64, kw int)

//go:noescape
func gemmMicroAVX512(c []float64, ldc int, ap, bp []float64, kw int)

// gemmKernelsFor lists the micro-kernels a CPU with features f can run,
// fastest first; the pure-Go kernel is always last.
func gemmKernelsFor(f cpuFeatures) []gemmKernel {
	var ks []gemmKernel
	if f.avx512 {
		ks = append(ks, gemmKernel{name: "avx512-8x16", mr: 8, nr: 16, fn: gemmMicroAVX512})
	}
	if f.fma {
		ks = append(ks, gemmKernel{name: "avx-4x8", mr: 4, nr: 8, fn: gemmMicroAVX})
	}
	return append(ks, gemmGoKernel)
}
