// The AVX-512 pass of FlushSubnormals (cells.go): the whole groups of eight
// cells, the last len%8 left to the Go loop, which is the definition this is
// held to. Guarded at runtime by cpu.avx512 (cpuFeatures). It has a file of
// its own, named to be linked after the package's other assembly, so that
// adding it moved none of the kernels' code addresses: their hot loops'
// alignment decides a few per cent of their speed.

#include "textflag.h"

// FLUSH8 writes back the 8 cells at off(SI)(BX*1), loaded in z with their
// subnormal lanes in k, when k has any: those lanes as their sign bit alone
// (z AND the sign mask in Z4, a masked store), their count added to AX. A
// group without a subnormal is not written.
#define FLUSH8(off, z, k, skip) \
	KORTESTW k, k; \
	JEQ      skip; \
	VANDPD   Z4, z, z; \
	VMOVUPD  z, k, off(SI)(BX*1); \
	KMOVW    k, R9; \
	POPCNTL  R9, R9; \
	ADDQ     R9, AX; \
skip:

// func flushSubnormalsAVX512(x *float64, n int) int64
//
// Stores every subnormal x[i], i < n, as the zero of its sign and returns how
// many it stored; n is a multiple of 8. VFPCLASSPD's denormal class (0x20)
// picks the lanes, whatever MXCSR holds. A group of 32 cells without a
// subnormal, the common case, costs four loads and classifications.
TEXT ·flushSubnormalsAVX512(SB), NOSPLIT, $0-24
	MOVQ       x+0(FP), SI
	MOVQ       n+8(FP), CX
	// BX is the byte offset, CX the n cells in bytes, R8 those of the
	// whole 32-cell groups; Z4 is the sign mask.
	XORQ       BX, BX
	SHLQ       $3, CX
	MOVQ       CX, R8
	ANDQ       $-256, R8
	XORQ       AX, AX
	VPTERNLOGQ $0xff, Z4, Z4, Z4
	VPSLLQ     $63, Z4, Z4

flush32:
	CMPQ        BX, R8
	JAE         flush8
	VMOVUPD     (SI)(BX*1), Z0
	VMOVUPD     64(SI)(BX*1), Z1
	VMOVUPD     128(SI)(BX*1), Z2
	VMOVUPD     192(SI)(BX*1), Z3
	VFPCLASSPDZ $0x20, Z0, K1
	VFPCLASSPDZ $0x20, Z1, K2
	VFPCLASSPDZ $0x20, Z2, K3
	VFPCLASSPDZ $0x20, Z3, K4
	KORW        K1, K2, K5
	KORW        K3, K4, K6
	KORTESTW    K5, K6
	JEQ         next32
	FLUSH8(0, Z0, K1, flushed0)
	FLUSH8(64, Z1, K2, flushed1)
	FLUSH8(128, Z2, K3, flushed2)
	FLUSH8(192, Z3, K4, flushed3)

next32:
	ADDQ $256, BX
	JMP  flush32

flush8:
	CMPQ        BX, CX
	JAE         flushed
	VMOVUPD     (SI)(BX*1), Z0
	VFPCLASSPDZ $0x20, Z0, K1
	FLUSH8(0, Z0, K1, flushed8)
	ADDQ        $64, BX
	JMP         flush8

flushed:
	VZEROUPPER
	MOVQ AX, ret+16(FP)
	RET
