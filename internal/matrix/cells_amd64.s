// AVX-512 loops of the dense cell-wise operators (see ops.go and cells.go):
// the whole groups of eight cells of BinOp.applyInto, ScalarOp.applyInto and
// countNonZero, the last len%8 cells left to their Go loops. Guarded at
// runtime by cpu.avx512 (cpuFeatures); the Go loops are the fallback and the
// definition these are held to.
//
// Each lane performs the IEEE operation the Go loop's scalar instruction
// performs (ADDSD, SUBSD, MULSD, DIVSD, rounded to nearest) with the same
// first source: the cell's left operand — a, x, or c for the reversed c-x
// and c/x — which is also the operand whose payload a NaN result keeps when
// both are NaN. So every cell's bits are the Go loop's. A group is loaded
// whole before any of it is stored, so dst may be a or b (x).

#include "textflag.h"

// BIN32 and BIN8 compute dst = a op b for the 32 or 8 cells at byte offset
// BX: a (SI) loaded as the first source, b (DX) read as the second.
#define BIN32(op) \
	VMOVUPD (SI)(BX*1), Z0; \
	VMOVUPD 64(SI)(BX*1), Z1; \
	VMOVUPD 128(SI)(BX*1), Z2; \
	VMOVUPD 192(SI)(BX*1), Z3; \
	op      (DX)(BX*1), Z0, Z0; \
	op      64(DX)(BX*1), Z1, Z1; \
	op      128(DX)(BX*1), Z2, Z2; \
	op      192(DX)(BX*1), Z3, Z3; \
	VMOVUPD Z0, (DI)(BX*1); \
	VMOVUPD Z1, 64(DI)(BX*1); \
	VMOVUPD Z2, 128(DI)(BX*1); \
	VMOVUPD Z3, 192(DI)(BX*1)

#define BIN8(op) \
	VMOVUPD (SI)(BX*1), Z0; \
	op      (DX)(BX*1), Z0, Z0; \
	VMOVUPD Z0, (DI)(BX*1)

// SCA32 and SCA8 compute dst = x op c: x (SI) loaded as the first source, c
// broadcast in Z4.
#define SCA32(op) \
	VMOVUPD (SI)(BX*1), Z0; \
	VMOVUPD 64(SI)(BX*1), Z1; \
	VMOVUPD 128(SI)(BX*1), Z2; \
	VMOVUPD 192(SI)(BX*1), Z3; \
	op      Z4, Z0, Z0; \
	op      Z4, Z1, Z1; \
	op      Z4, Z2, Z2; \
	op      Z4, Z3, Z3; \
	VMOVUPD Z0, (DI)(BX*1); \
	VMOVUPD Z1, 64(DI)(BX*1); \
	VMOVUPD Z2, 128(DI)(BX*1); \
	VMOVUPD Z3, 192(DI)(BX*1)

#define SCA8(op) \
	VMOVUPD (SI)(BX*1), Z0; \
	op      Z4, Z0, Z0; \
	VMOVUPD Z0, (DI)(BX*1)

// RSCA32 and RSCA8 compute dst = c op x: c (Z4) the first source, x (SI)
// read as the second.
#define RSCA32(op) \
	op      (SI)(BX*1), Z4, Z0; \
	op      64(SI)(BX*1), Z4, Z1; \
	op      128(SI)(BX*1), Z4, Z2; \
	op      192(SI)(BX*1), Z4, Z3; \
	VMOVUPD Z0, (DI)(BX*1); \
	VMOVUPD Z1, 64(DI)(BX*1); \
	VMOVUPD Z2, 128(DI)(BX*1); \
	VMOVUPD Z3, 192(DI)(BX*1)

#define RSCA8(op) \
	op      (SI)(BX*1), Z4, Z0; \
	VMOVUPD Z0, (DI)(BX*1)

// LOOP runs body32 while 32 cells are left and body8 while 8 are, with the
// byte offset in BX: R8 is the bytes of the whole 32-cell groups, CX of all
// the cells.
#define LOOP(body32, body8, op, l32, l8) \
l32:; \
	CMPQ BX, R8; \
	JAE  l8; \
	body32(op); \
	ADDQ $256, BX; \
	JMP  l32; \
l8:; \
	CMPQ BX, CX; \
	JAE  done; \
	body8(op); \
	ADDQ $64, BX; \
	JMP  l8

// SETUP sets BX to 0, CX to the n cells in bytes and R8 to those of the
// whole 32-cell groups.
#define SETUP \
	XORQ BX, BX; \
	SHLQ $3, CX; \
	MOVQ CX, R8; \
	ANDQ $-256, R8

// func binOpAVX512(op BinOp, dst, a, b *float64, n int)
//
// dst[i] = a[i] op b[i] for i < n, n a multiple of 8. An unknown op writes
// nothing.
TEXT ·binOpAVX512(SB), NOSPLIT, $0-40
	MOVQ op+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), DX
	MOVQ n+32(FP), CX
	SETUP
	CMPQ AX, $0
	JEQ  add
	CMPQ AX, $1
	JEQ  sub
	CMPQ AX, $2
	JEQ  mul
	CMPQ AX, $3
	JEQ  div
	JMP  done

add:
	LOOP(BIN32, BIN8, VADDPD, add32, add8)

sub:
	LOOP(BIN32, BIN8, VSUBPD, sub32, sub8)

mul:
	LOOP(BIN32, BIN8, VMULPD, mul32, mul8)

div:
	LOOP(BIN32, BIN8, VDIVPD, div32, div8)

done:
	VZEROUPPER
	RET

// func scalarOpAVX512(op ScalarOp, dst, x *float64, c float64, n int)
//
// dst[i] = x[i] op c (c op x[i] for the reversed operators) for i < n, n a
// multiple of 8. An unknown op writes nothing.
TEXT ·scalarOpAVX512(SB), NOSPLIT, $0-40
	MOVQ         op+0(FP), AX
	MOVQ         dst+8(FP), DI
	MOVQ         x+16(FP), SI
	VBROADCASTSD c+24(FP), Z4
	MOVQ         n+32(FP), CX
	SETUP
	CMPQ AX, $0
	JEQ  smul
	CMPQ AX, $1
	JEQ  sadd
	CMPQ AX, $2
	JEQ  ssub
	CMPQ AX, $3
	JEQ  sdiv
	CMPQ AX, $4
	JEQ  rsub
	CMPQ AX, $5
	JEQ  rdiv
	JMP  done

smul:
	LOOP(SCA32, SCA8, VMULPD, smul32, smul8)

sadd:
	LOOP(SCA32, SCA8, VADDPD, sadd32, sadd8)

ssub:
	LOOP(SCA32, SCA8, VSUBPD, ssub32, ssub8)

sdiv:
	LOOP(SCA32, SCA8, VDIVPD, sdiv32, sdiv8)

rsub:
	LOOP(RSCA32, RSCA8, VSUBPD, rsub32, rsub8)

rdiv:
	LOOP(RSCA32, RSCA8, VDIVPD, rdiv32, rdiv8)

done:
	VZEROUPPER
	RET

// COUNT8 adds to AX the lanes of the 8 cells at off(SI)(BX*1) that are not
// equal to zero or are unordered (NaN), as the Go loop's v != 0 has it:
// VCMPPD's NEQ_UQ predicate (4) against the zeros in Z4, then a population
// count of the mask.
#define COUNT8(off, k, r) \
	VCMPPD  $4, off(SI)(BX*1), Z4, k; \
	KMOVW   k, r; \
	POPCNTL r, r; \
	ADDQ    r, AX

// func countNonZeroAVX512(x *float64, n int) int64
//
// The number of x[i] != 0 for i < n, n a multiple of 8.
TEXT ·countNonZeroAVX512(SB), NOSPLIT, $0-24
	MOVQ   x+0(FP), SI
	MOVQ   n+8(FP), CX
	SETUP
	XORQ   AX, AX
	VPXORQ Z4, Z4, Z4

count32:
	CMPQ BX, R8
	JAE  count8
	COUNT8(0, K1, R9)
	COUNT8(64, K2, R10)
	COUNT8(128, K3, R11)
	COUNT8(192, K4, R12)
	ADDQ $256, BX
	JMP  count32

count8:
	CMPQ BX, CX
	JAE  counted
	COUNT8(0, K1, R9)
	ADDQ $64, BX
	JMP  count8

counted:
	VZEROUPPER
	MOVQ AX, ret+16(FP)
	RET
