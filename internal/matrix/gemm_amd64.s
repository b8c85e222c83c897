// CPU feature probes and the assembly micro-kernels of the packed GEMM (see
// gemm.go): an 8x16 tile on AVX-512 (sixteen ZMM accumulators) and a 4x8 tile
// on AVX with FMA3 (eight YMM accumulators). Which one runs is decided once,
// in gemm_amd64.go, from the probes below.
//
// Both tiles compute, for every result element, exactly what the pure-Go
// gemmMicroGo computes: acc = 0; acc = fma(a[k], b[k], acc) for k ascending,
// one rounding per step (VFMADD231PD, as math.FMA); then c += acc in the
// write-back, the only separate add of a tile. So the results are
// bit-identical whichever kernel runs. A NaN payload is the one exception:
// when two different NaNs meet, the fused instruction and math.FMA may keep
// different ones; the cells that are NaN are the same (see
// TestGemmFusedReference).
//
// A k step issues one fused multiply-add per accumulator and nothing else on
// the floating-point ports. The accumulators are independent chains of FMAs;
// with at least (FMA latency x FMA ports) = 4 x 2 of them no FMA waits for
// the previous one and the step runs at the ports' throughput. A wider 8x24
// AVX-512 tile (24 accumulators) measured no faster than 8x16 (48-60 vs
// 54-62 GFLOP/s on one core of a Xeon with two FMA ports), so the tile stays
// 8x16.

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
//
// Reads XCR0. Only valid when CPUID reports OSXSAVE.
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// One row of the 4x8 tile for the B row held in Y8:Y9: broadcast the row's A
// value and fuse its products into the row's two accumulators
// (acc += a * b, rounded once).
#define ROW4x8(aoff, acc0, acc1) \
	VBROADCASTSD aoff(SI), Y10; \
	VFMADD231PD  Y8, Y10, acc0; \
	VFMADD231PD  Y9, Y10, acc1

// One k step of the 4x8 tile: 4 packed A values at aoff(SI), 8 packed B
// values at boff(BX).
#define STEP4x8(aoff, boff) \
	VMOVUPD boff(BX), Y8; \
	VMOVUPD (boff+32)(BX), Y9; \
	ROW4x8(aoff, Y0, Y1); \
	ROW4x8((aoff+8), Y2, Y3); \
	ROW4x8((aoff+16), Y4, Y5); \
	ROW4x8((aoff+24), Y6, Y7)

// c[0:8] at (DI) += acc0:acc1, then DI moves down one row.
#define STORE4x8(acc0, acc1) \
	VMOVUPD (DI), Y8; \
	VMOVUPD 32(DI), Y9; \
	VADDPD  acc0, Y8, Y8; \
	VADDPD  acc1, Y9, Y9; \
	VMOVUPD Y8, (DI); \
	VMOVUPD Y9, 32(DI); \
	LEAQ    (DI)(DX*8), DI

// func gemmMicroAVX(c []float64, ldc int, ap, bp []float64, kw int)
//
// c[0:4, 0:8] += Ap * Bp over kw, with Ap a packed 4-row panel (k-major,
// stride 4) and Bp a packed 8-column panel (k-major, stride 8). Row r
// accumulates in Y(2r):Y(2r+1). The caller guarantees kw >= 1 and that all
// four result rows of eight are in bounds, and that the CPU has FMA3
// (cpuFeatures.fma).
TEXT ·gemmMicroAVX(SB), NOSPLIT, $0-88
	MOVQ c_base+0(FP), DI
	MOVQ ldc+24(FP), DX
	MOVQ ap_base+32(FP), SI
	MOVQ bp_base+56(FP), BX
	MOVQ kw+80(FP), CX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	MOVQ CX, R9
	SHRQ $2, R9 // R9 = kw/4 unrolled iterations
	ANDQ $3, CX // CX = kw%4 tail iterations
	TESTQ R9, R9
	JZ   tail4x8

loop4x8:
	STEP4x8(0, 0)
	STEP4x8(32, 64)
	STEP4x8(64, 128)
	STEP4x8(96, 192)
	ADDQ $128, SI
	ADDQ $256, BX
	DECQ R9
	JNZ  loop4x8

	TESTQ CX, CX
	JZ   done4x8

tail4x8:
	STEP4x8(0, 0)
	ADDQ $32, SI
	ADDQ $64, BX
	DECQ CX
	JNZ  tail4x8

done4x8:
	STORE4x8(Y0, Y1)
	STORE4x8(Y2, Y3)
	STORE4x8(Y4, Y5)
	STORE4x8(Y6, Y7)
	VZEROUPPER
	RET

// One row of the 8x16 tile for the B row held in Z16:Z17.
#define ROW8x16(aoff, acc0, acc1) \
	VBROADCASTSD aoff(SI), Z18; \
	VFMADD231PD  Z16, Z18, acc0; \
	VFMADD231PD  Z17, Z18, acc1

// One k step of the 8x16 tile: 8 packed A values at aoff(SI), 16 packed B
// values at boff(BX).
#define STEP8x16(aoff, boff) \
	VMOVUPD boff(BX), Z16; \
	VMOVUPD (boff+64)(BX), Z17; \
	ROW8x16(aoff, Z0, Z1); \
	ROW8x16((aoff+8), Z2, Z3); \
	ROW8x16((aoff+16), Z4, Z5); \
	ROW8x16((aoff+24), Z6, Z7); \
	ROW8x16((aoff+32), Z8, Z9); \
	ROW8x16((aoff+40), Z10, Z11); \
	ROW8x16((aoff+48), Z12, Z13); \
	ROW8x16((aoff+56), Z14, Z15)

// c[0:16] at (DI) += acc0:acc1, then DI moves down one row.
#define STORE8x16(acc0, acc1) \
	VMOVUPD (DI), Z16; \
	VMOVUPD 64(DI), Z17; \
	VADDPD  acc0, Z16, Z16; \
	VADDPD  acc1, Z17, Z17; \
	VMOVUPD Z16, (DI); \
	VMOVUPD Z17, 64(DI); \
	LEAQ    (DI)(DX*8), DI

// func gemmMicroAVX512(c []float64, ldc int, ap, bp []float64, kw int)
//
// c[0:8, 0:16] += Ap * Bp over kw, with Ap a packed 8-row panel (k-major,
// stride 8) and Bp a packed 16-column panel (k-major, stride 16). Row r
// accumulates in Z(2r):Z(2r+1). The caller guarantees kw >= 1, that all
// eight result rows of sixteen are in bounds, and that the OS saves ZMM
// state (cpuFeatures.avx512; AVX-512F includes the ZMM fused multiply-add).
TEXT ·gemmMicroAVX512(SB), NOSPLIT, $0-88
	MOVQ c_base+0(FP), DI
	MOVQ ldc+24(FP), DX
	MOVQ ap_base+32(FP), SI
	MOVQ bp_base+56(FP), BX
	MOVQ kw+80(FP), CX

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15

	MOVQ CX, R9
	SHRQ $1, R9 // R9 = kw/2 unrolled iterations
	ANDQ $1, CX // CX = kw%2 tail iteration
	TESTQ R9, R9
	JZ   tail8x16

loop8x16:
	STEP8x16(0, 0)
	STEP8x16(64, 128)
	ADDQ $128, SI
	ADDQ $256, BX
	DECQ R9
	JNZ  loop8x16

	TESTQ CX, CX
	JZ   done8x16

tail8x16:
	STEP8x16(0, 0)

done8x16:
	STORE8x16(Z0, Z1)
	STORE8x16(Z2, Z3)
	STORE8x16(Z4, Z5)
	STORE8x16(Z6, Z7)
	STORE8x16(Z8, Z9)
	STORE8x16(Z10, Z11)
	STORE8x16(Z12, Z13)
	STORE8x16(Z14, Z15)
	VZEROUPPER
	RET
