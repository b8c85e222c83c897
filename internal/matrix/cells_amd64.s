// AVX-512 loops of the dense cell-wise operators (see ops.go, cells.go and
// ufunc.go): the whole groups of eight cells of BinOp.applyInto,
// ScalarOp.applyInto, countNonZero and, for exp and sigmoid,
// UFunc.applyInto, the last len%8 cells left to their Go loops. Guarded at
// runtime by cpu.avx512 (cpuFeatures); the Go loops are the fallback and the
// definition these are held to. The exp loop comes last in this file.
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

// The exp and sigmoid loops hold each lane to math.Exp's amd64 assembly on
// the path it takes on a CPU with FMA (archExp's avxfma branch), instruction
// for instruction: the constants below are archExp's, and every step is the
// packed form of its scalar one on the same operands. A group holding a lane
// archExp sends off that path is not stored; the loop returns, and the Go
// loop computes that group. math.Exp's path is checked once at start-up
// (expLanesExact), since GODEBUG=cpu.fma=off sends it down its other branch.

#define LN2U 0.69314718055966295651160180568695068359375 // upper half LN2
#define LN2L 0.28235290563031577122588448175013436025525412068e-12 // lower half LN2

DATA expdata<>+0(SB)/8, $1.4426950408889634073599246810018920 // LOG2E
DATA expdata<>+8(SB)/8, $7.09782712893384e+02 // Overflow
DATA expdata<>+16(SB)/8, $LN2U
DATA expdata<>+24(SB)/8, $LN2L
DATA expdata<>+32(SB)/8, $0.0625
DATA expdata<>+40(SB)/8, $2.4801587301587301587e-5
DATA expdata<>+48(SB)/8, $1.9841269841269841270e-4
DATA expdata<>+56(SB)/8, $1.3888888888888888889e-3
DATA expdata<>+64(SB)/8, $8.3333333333333333333e-3
DATA expdata<>+72(SB)/8, $4.1666666666666666667e-2
DATA expdata<>+80(SB)/8, $1.6666666666666666667e-1
DATA expdata<>+88(SB)/8, $0.5
DATA expdata<>+96(SB)/8, $1.0
DATA expdata<>+104(SB)/8, $2.0
GLOBL expdata<>+0(SB), RODATA, $112

// EXP8 replaces the eight x in Z0 with exp(x), or jumps to bail when a lane
// is off archExp's main path: x not finite (|x| >= +Inf as integers), x >
// Overflow, or a biased exponent k+0x3FF outside [1, 0x7FE] (archExp's
// denormal and underflow branches, its overflow after rounding, and the
// out-of-range conversion, which gives k = -2^31).
#define EXP8(bail) \
	VPANDQ       Z10, Z0, Z1; \
	VPCMPUQ      $5, Z9, Z1, K1; \
	VCMPPD       $0x1e, Z17, Z0, K2; \
	VMULPD       Z16, Z0, Z1; \
	VCVTPD2DQ    Z1, Y2; \
	VCVTDQ2PD    Y2, Z3; \
	VPMOVSXDQ    Y2, Z5; \
	VPADDQ       Z11, Z5, Z5; \
	VPCMPQ       $1, Z12, Z5, K3; \
	VPCMPQ       $6, Z13, Z5, K4; \
	KORW         K1, K2, K1; \
	KORW         K3, K1, K1; \
	KORW         K4, K1, K1; \
	KORTESTW     K1, K1; \
	JNE          bail; \
	VFNMADD231PD Z18, Z3, Z0; \
	VFNMADD231PD Z19, Z3, Z0; \
	VMULPD       Z20, Z0, Z0; \
	VMOVAPD      Z21, Z4; \
	VFMADD213PD  Z22, Z0, Z4; \
	VFMADD213PD  Z23, Z0, Z4; \
	VFMADD213PD  Z24, Z0, Z4; \
	VFMADD213PD  Z25, Z0, Z4; \
	VFMADD213PD  Z26, Z0, Z4; \
	VFMADD213PD  Z27, Z0, Z4; \
	VFMADD213PD  Z28, Z0, Z4; \
	VMULPD       Z4, Z0, Z0; \
	VADDPD       Z29, Z0, Z4; \
	VMULPD       Z4, Z0, Z0; \
	VADDPD       Z29, Z0, Z4; \
	VMULPD       Z4, Z0, Z0; \
	VADDPD       Z29, Z0, Z4; \
	VMULPD       Z4, Z0, Z0; \
	VADDPD       Z29, Z0, Z4; \
	VFMADD213PD  Z28, Z4, Z0; \
	VPSLLQ       $52, Z5, Z5; \
	VMULPD       Z5, Z0, Z0

// func expAVX512(f UFunc, dst, x *float64, n int) int
//
// dst[i] = exp(x[i]) (f FuncExp) or 1/(1+exp(-x[i])) (f FuncSigmoid) for i
// < n, n a multiple of 8, group by group up to the first group holding a lane
// off archExp's main path; returns the cells written, the start of that
// group or n. The argument of sigmoid's exp is x with its sign bit flipped,
// as Go negates; its 1 + e and 1 / that are VADDPD and VDIVPD.
TEXT ·expAVX512(SB), NOSPLIT, $0-40
	MOVQ         f+0(FP), AX
	MOVQ         dst+8(FP), DI
	MOVQ         x+16(FP), SI
	MOVQ         n+24(FP), CX
	SHLQ         $3, CX
	XORQ         BX, BX
	MOVQ         $0x7ff0000000000000, DX
	VPBROADCASTQ DX, Z9
	MOVQ         $0x7fffffffffffffff, DX
	VPBROADCASTQ DX, Z10
	MOVQ         $0x3ff, DX
	VPBROADCASTQ DX, Z11
	MOVQ         $1, DX
	VPBROADCASTQ DX, Z12
	MOVQ         $0x7fe, DX
	VPBROADCASTQ DX, Z13
	MOVQ         $0x8000000000000000, DX
	VPBROADCASTQ DX, Z14
	VBROADCASTSD expdata<>+0(SB), Z16
	VBROADCASTSD expdata<>+8(SB), Z17
	VBROADCASTSD expdata<>+16(SB), Z18
	VBROADCASTSD expdata<>+24(SB), Z19
	VBROADCASTSD expdata<>+32(SB), Z20
	VBROADCASTSD expdata<>+40(SB), Z21
	VBROADCASTSD expdata<>+48(SB), Z22
	VBROADCASTSD expdata<>+56(SB), Z23
	VBROADCASTSD expdata<>+64(SB), Z24
	VBROADCASTSD expdata<>+72(SB), Z25
	VBROADCASTSD expdata<>+80(SB), Z26
	VBROADCASTSD expdata<>+88(SB), Z27
	VBROADCASTSD expdata<>+96(SB), Z28
	VBROADCASTSD expdata<>+104(SB), Z29
	CMPQ         AX, $0
	JEQ          sigmoid8
	CMPQ         AX, $1
	JNE          expdone

exp8:
	CMPQ    BX, CX
	JAE     expdone
	VMOVUPD (SI)(BX*1), Z0
	EXP8(expdone)
	VMOVUPD Z0, (DI)(BX*1)
	ADDQ    $64, BX
	JMP     exp8

sigmoid8:
	CMPQ    BX, CX
	JAE     expdone
	VMOVUPD (SI)(BX*1), Z0
	VPXORQ  Z14, Z0, Z0
	EXP8(expdone)
	VADDPD  Z28, Z0, Z0
	VDIVPD  Z0, Z28, Z0
	VMOVUPD Z0, (DI)(BX*1)
	ADDQ    $64, BX
	JMP     sigmoid8

expdone:
	SHRQ $3, BX
	MOVQ BX, ret+32(FP)
	VZEROUPPER
	RET
