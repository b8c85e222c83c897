//go:build amd64

package matrix

import (
	"strings"
	"testing"
)

// TestDecodeCPU pins the gate in front of every vector instruction: the CPU
// must implement the width (and FMA3 for the 4x8 tile) and the OS must save
// its registers. Each row also names the GEMM micro-kernels that CPU gets.
func TestDecodeCPU(t *testing.T) {
	const avxCPU = cpuidOSXSAVE | cpuidAVX
	const fmaCPU = avxCPU | cpuidFMA
	cases := []struct {
		name                    string
		leaf1ECX, leaf7EBX, xcr uint32
		want                    cpuFeatures
		kernels                 string
	}{
		{"sse only", 0, 0, 0, cpuFeatures{}, "go-2x4"},
		{"avx, os saves ymm", avxCPU, 0, 0x07, cpuFeatures{avx: true}, "go-2x4"},
		{"avx, os does not save ymm", avxCPU, 0, 0x03, cpuFeatures{}, "go-2x4"},
		{"avx without osxsave", cpuidAVX, 0, 0x07, cpuFeatures{}, "go-2x4"},
		{"avx without fma (sandy/ivy bridge)", avxCPU, 0, 0x07, cpuFeatures{avx: true}, "go-2x4"},
		{"avx and fma", fmaCPU, 0, 0x07, cpuFeatures{avx: true, fma: true}, "avx-4x8 go-2x4"},
		{"fma, os does not save ymm", fmaCPU, 0, 0x03, cpuFeatures{}, "go-2x4"},
		{"fma without avx", cpuidOSXSAVE | cpuidFMA, 0, 0x07, cpuFeatures{}, "go-2x4"},
		{"avx512f, os saves zmm", fmaCPU, cpuidAVX512F, 0xe7, cpuFeatures{avx: true, fma: true, avx512: true}, "avx512-8x16 avx-4x8 go-2x4"},
		{"avx512f, os saves ymm only", fmaCPU, cpuidAVX512F, 0x07, cpuFeatures{avx: true, fma: true}, "avx-4x8 go-2x4"},
		{"avx512f, zmm16-31 state missing", fmaCPU, cpuidAVX512F, 0x67, cpuFeatures{avx: true, fma: true}, "avx-4x8 go-2x4"},
		{"zmm state without avx512f", fmaCPU, 0, 0xe7, cpuFeatures{avx: true, fma: true}, "avx-4x8 go-2x4"},
	}
	for _, c := range cases {
		got := decodeCPU(c.leaf1ECX, c.leaf7EBX, c.xcr)
		if got != c.want {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
		var names []string
		for _, k := range gemmKernelsFor(got) {
			names = append(names, k.name)
		}
		if s := strings.Join(names, " "); s != c.kernels {
			t.Errorf("%s: micro-kernels %q, want %q", c.name, s, c.kernels)
		}
	}
	if f := detectCPU(); f.avx512 && !f.avx || f.fma && !f.avx {
		t.Errorf("detectCPU reports %+v: a YMM extension without AVX", f)
	}
}
