// AVX axpy micro-kernel for the sparse x dense kernels (see mul.go). Guarded
// at runtime by cpu.avx (cpuFeatures); the pure-Go axpyGo is the fallback.
//
// Unlike the GEMM micro-kernels it uses separate VMULPD+VADDPD (no FMA), the
// sparse kernels' side of the rule in mul.go: each lane performs exactly the
// scalar loop's mul-then-add with the same rounding, so AVX and fallback
// results are bit-identical.

#include "textflag.h"

// func axpyAVX(alpha float64, x, y *float64, n int)
//
// y[0:n] += alpha * x[0:n]. Sixteen lanes per iteration of the main loop,
// then four at a time, then a scalar tail. x and y must not overlap.
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), CX

	MOVQ CX, R9
	SHRQ $4, R9 // R9 = n/16 unrolled iterations
	JZ   quads

loop16:
	VMULPD  (SI), Y0, Y1
	VMULPD  32(SI), Y0, Y2
	VMULPD  64(SI), Y0, Y3
	VMULPD  96(SI), Y0, Y4
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VADDPD  64(DI), Y3, Y3
	VADDPD  96(DI), Y4, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	DECQ    R9
	JNZ     loop16

quads:
	MOVQ CX, R9
	ANDQ $15, R9
	SHRQ $2, R9 // R9 = (n%16)/4 four-lane iterations
	JZ   tail

loop4:
	VMULPD  (SI), Y0, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    R9
	JNZ     loop4

tail:
	ANDQ $3, CX // CX = n%4 scalar iterations
	JZ   done

loop1:
	VMULSD (SI), X0, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    loop1

done:
	VZEROUPPER
	RET
