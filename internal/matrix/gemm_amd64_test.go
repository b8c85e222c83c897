//go:build amd64

package matrix

import "testing"

// TestDecodeCPU pins the gate in front of every vector instruction: the CPU
// must implement the width and the OS must save its registers.
func TestDecodeCPU(t *testing.T) {
	const avxCPU = cpuidOSXSAVE | cpuidAVX
	cases := []struct {
		name                    string
		leaf1ECX, leaf7EBX, xcr uint32
		want                    cpuFeatures
	}{
		{"sse only", 0, 0, 0, cpuFeatures{}},
		{"avx, os saves ymm", avxCPU, 0, 0x07, cpuFeatures{avx: true}},
		{"avx, os does not save ymm", avxCPU, 0, 0x03, cpuFeatures{}},
		{"avx without osxsave", cpuidAVX, 0, 0x07, cpuFeatures{}},
		{"avx512f, os saves zmm", avxCPU, cpuidAVX512F, 0xe7, cpuFeatures{avx: true, avx512: true}},
		{"avx512f, os saves ymm only", avxCPU, cpuidAVX512F, 0x07, cpuFeatures{avx: true}},
		{"avx512f, zmm16-31 state missing", avxCPU, cpuidAVX512F, 0x67, cpuFeatures{avx: true}},
		{"zmm state without avx512f", avxCPU, 0, 0xe7, cpuFeatures{avx: true}},
	}
	for _, c := range cases {
		if got := decodeCPU(c.leaf1ECX, c.leaf7EBX, c.xcr); got != c.want {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
	}
	if f := detectCPU(); f.avx512 && !f.avx {
		t.Errorf("detectCPU reports %+v: AVX-512 without AVX", f)
	}
}
