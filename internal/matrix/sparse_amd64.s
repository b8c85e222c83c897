// AVX-512 routines of the sparse x dense kernels (see mul.go): the register
// gather behind gather and the 8x8 register transposes behind packTransLd and
// addTile. Guarded at runtime by cpu.avx512 (cpuFeatures); the pure-Go loops
// they replace are the fallback and the definition they are held to.
//
// gatherAVX512 keeps axpyAVX's arithmetic: each product is a VMULPD, rounded,
// then added by a separate VADDPD with the product as the first source, so a
// lane performs exactly the axpy sequence's multiply-then-add steps in the
// same order and the results are bit-identical. What changes is where the
// sum lives: in up to eight ZMM registers for the whole list of entries, so
// the accumulator is loaded (or zeroed) and stored once instead of once per
// entry. The transposes move data and add nothing but addTile's one
// dst + acc per element, which is the Go loop's addition.

#include "textflag.h"

// ENTRY reads entry CX of the list: AX becomes the byte offset of its row of
// x, Z8 its value broadcast. A row index outside [0, R13) ends the call with
// ok = false before the pass in flight stores anything.
#define ENTRY \
	MOVLQSX      (R8)(CX*4), AX; \
	CMPQ         AX, R13; \
	JAE          bad; \
	IMULQ        R11, AX; \
	VBROADCASTSD (R9)(CX*8), Z8

// MADD adds the rounded product of Z8 and the eight lanes at off in the
// entry's row of x into acc.
#define MADD(off, acc) \
	VMULPD off(SI)(AX*1), Z8, Z9; \
	VADDPD acc, Z9, acc

// func gatherAVX512(y, x *float64, rows *int32, vals *float64, nnz, lanes, xrows int, load bool) (ok bool)
//
// For every lane l < lanes: y[l] = y0 + vals[0]*x[rows[0]*lanes+l] + ... in
// entry order, with y0 = y[l] when load and +0 otherwise. The lanes run in
// passes of 64, 32 and 8 (eight, four and one accumulator registers), and a
// last pass of 1-7 lanes under a mask, whose masked loads do not touch the
// memory past the row. Every pass walks all nnz >= 1 entries. ok is false,
// and y partly written, if a row index is outside [0, xrows).
TEXT ·gatherAVX512(SB), NOSPLIT, $0-65
	MOVQ    y+0(FP), DI
	MOVQ    x+8(FP), SI
	MOVQ    rows+16(FP), R8
	MOVQ    vals+24(FP), R9
	MOVQ    nnz+32(FP), R10
	MOVQ    lanes+40(FP), DX
	MOVQ    xrows+48(FP), R13
	MOVBLZX load+56(FP), R12
	MOVQ    DX, R11
	SHLQ    $3, R11              // bytes per row of x

pass:
	CMPQ DX, $64
	JAE  pass64
	CMPQ DX, $32
	JAE  pass32
	CMPQ DX, $8
	JAE  pass8
	TESTQ DX, DX
	JZ   done

	// 1-7 lanes: K1 selects them.
	MOVQ   DX, CX
	MOVL   $1, AX
	SHLL   CX, AX
	DECL   AX
	KMOVW  AX, K1
	VPXORQ Z0, Z0, Z0
	TESTQ  R12, R12
	JZ     walkTail
	VMOVUPD (DI), K1, Z0

walkTail:
	XORQ CX, CX

loopTail:
	ENTRY
	VMULPD.Z (SI)(AX*1), Z8, K1, Z9
	VADDPD   Z0, Z9, Z0
	INCQ     CX
	CMPQ     CX, R10
	JB       loopTail
	VMOVUPD  Z0, K1, (DI)
	JMP      done

pass64:
	TESTQ R12, R12
	JNZ   load64
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	JMP    walk64

load64:
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	VMOVUPD 256(DI), Z4
	VMOVUPD 320(DI), Z5
	VMOVUPD 384(DI), Z6
	VMOVUPD 448(DI), Z7

walk64:
	XORQ CX, CX

loop64:
	ENTRY
	MADD(0, Z0)
	MADD(64, Z1)
	MADD(128, Z2)
	MADD(192, Z3)
	MADD(256, Z4)
	MADD(320, Z5)
	MADD(384, Z6)
	MADD(448, Z7)
	INCQ CX
	CMPQ CX, R10
	JB   loop64

	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	ADDQ    $512, DI
	ADDQ    $512, SI
	SUBQ    $64, DX
	JMP     pass

pass32:
	TESTQ R12, R12
	JNZ   load32
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	JMP    walk32

load32:
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3

walk32:
	XORQ CX, CX

loop32:
	ENTRY
	MADD(0, Z0)
	MADD(64, Z1)
	MADD(128, Z2)
	MADD(192, Z3)
	INCQ CX
	CMPQ CX, R10
	JB   loop32

	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	ADDQ    $256, DI
	ADDQ    $256, SI
	SUBQ    $32, DX
	JMP     pass

pass8:
	TESTQ R12, R12
	JNZ   load8
	VPXORQ Z0, Z0, Z0
	JMP    walk8

load8:
	VMOVUPD (DI), Z0

walk8:
	XORQ CX, CX

loop8:
	ENTRY
	MADD(0, Z0)
	INCQ CX
	CMPQ CX, R10
	JB   loop8

	VMOVUPD Z0, (DI)
	ADDQ    $64, DI
	ADDQ    $64, SI
	SUBQ    $8, DX
	JMP     pass

done:
	VZEROUPPER
	MOVB $1, ok+64(FP)
	RET

bad:
	VZEROUPPER
	MOVB $0, ok+64(FP)
	RET

// TRANSPOSE8 transposes the 8x8 block whose rows are Z0-Z7 into Z8-Z15 (Z8
// is column 0, ..., Z15 column 7), clobbering Z0-Z7: pairs of rows are
// interleaved (unpacks), then 128-bit lanes are gathered twice (shuffles).
#define TRANSPOSE8 \
	VUNPCKLPD  Z1, Z0, Z8; \
	VUNPCKHPD  Z1, Z0, Z9; \
	VUNPCKLPD  Z3, Z2, Z10; \
	VUNPCKHPD  Z3, Z2, Z11; \
	VUNPCKLPD  Z5, Z4, Z12; \
	VUNPCKHPD  Z5, Z4, Z13; \
	VUNPCKLPD  Z7, Z6, Z14; \
	VUNPCKHPD  Z7, Z6, Z15; \
	VSHUFF64X2 $0x88, Z10, Z8, Z0; \
	VSHUFF64X2 $0x88, Z11, Z9, Z1; \
	VSHUFF64X2 $0xdd, Z10, Z8, Z2; \
	VSHUFF64X2 $0xdd, Z11, Z9, Z3; \
	VSHUFF64X2 $0x88, Z14, Z12, Z4; \
	VSHUFF64X2 $0x88, Z15, Z13, Z5; \
	VSHUFF64X2 $0xdd, Z14, Z12, Z6; \
	VSHUFF64X2 $0xdd, Z15, Z13, Z7; \
	VSHUFF64X2 $0x88, Z4, Z0, Z8; \
	VSHUFF64X2 $0x88, Z5, Z1, Z9; \
	VSHUFF64X2 $0x88, Z6, Z2, Z10; \
	VSHUFF64X2 $0x88, Z7, Z3, Z11; \
	VSHUFF64X2 $0xdd, Z4, Z0, Z12; \
	VSHUFF64X2 $0xdd, Z5, Z1, Z13; \
	VSHUFF64X2 $0xdd, Z6, Z2, Z14; \
	VSHUFF64X2 $0xdd, Z7, Z3, Z15

// STRIDES sets, for a stride of s elements in the given register, the byte
// offsets of 1, 3, 5 and 7 strides in r1, r3, r5 and r7; with the scaled
// index forms (r1*2, r1*4, r3*2) they address eight rows from one base.
#define STRIDES(s, r1, r3, r5, r7) \
	MOVQ s, r1; \
	SHLQ $3, r1; \
	LEAQ (r1)(r1*2), r3; \
	LEAQ (r1)(r1*4), r5; \
	LEAQ (r3)(r1*4), r7

// func packTransAVX512(buf *float64, ldb int, src *float64, ld, blocks int)
//
// buf[c*ldb+r] = src[r*ld+c] for r < 8 and c < 8*blocks: eight source rows
// are read 64 bytes at a time, and every store writes eight consecutive
// elements of buf. blocks >= 1.
TEXT ·packTransAVX512(SB), NOSPLIT, $0-40
	MOVQ buf+0(FP), DI
	MOVQ src+16(FP), SI
	MOVQ blocks+32(FP), CX
	STRIDES(ld+24(FP), R8, R9, R10, R11)
	STRIDES(ldb+8(FP), R12, R13, R14, BX)

packLoop:
	VMOVUPD (SI), Z0
	VMOVUPD (SI)(R8*1), Z1
	VMOVUPD (SI)(R8*2), Z2
	VMOVUPD (SI)(R9*1), Z3
	VMOVUPD (SI)(R8*4), Z4
	VMOVUPD (SI)(R10*1), Z5
	VMOVUPD (SI)(R9*2), Z6
	VMOVUPD (SI)(R11*1), Z7
	TRANSPOSE8
	VMOVUPD Z8, (DI)
	VMOVUPD Z9, (DI)(R12*1)
	VMOVUPD Z10, (DI)(R12*2)
	VMOVUPD Z11, (DI)(R13*1)
	VMOVUPD Z12, (DI)(R12*4)
	VMOVUPD Z13, (DI)(R14*1)
	VMOVUPD Z14, (DI)(R13*2)
	VMOVUPD Z15, (DI)(BX*1)
	ADDQ    $64, SI
	LEAQ    (DI)(R12*8), DI
	DECQ    CX
	JNZ     packLoop
	VZEROUPPER
	RET

// ADDROW adds the eight values in row to the eight at addr: dst + acc, dst
// the first source, as the Go loop's d += acc.
#define ADDROW(row, addr, tmp) \
	VMOVUPD addr, tmp; \
	VADDPD  row, tmp, tmp; \
	VMOVUPD tmp, addr

// func addTileAVX512(d *float64, ld int, acc *float64, n, blocks int)
//
// d[i*ld+c] += acc[c*n+i] for c < 8 and i < 8*blocks: eight lanes of the
// eight accumulated columns are transposed into eight rows of d and added,
// one 64-byte load, add and store a row. blocks >= 1.
TEXT ·addTileAVX512(SB), NOSPLIT, $0-40
	MOVQ d+0(FP), DI
	MOVQ acc+16(FP), SI
	MOVQ blocks+32(FP), CX
	STRIDES(n+24(FP), R8, R9, R10, R11)
	STRIDES(ld+8(FP), R12, R13, R14, BX)

addLoop:
	VMOVUPD (SI), Z0
	VMOVUPD (SI)(R8*1), Z1
	VMOVUPD (SI)(R8*2), Z2
	VMOVUPD (SI)(R9*1), Z3
	VMOVUPD (SI)(R8*4), Z4
	VMOVUPD (SI)(R10*1), Z5
	VMOVUPD (SI)(R9*2), Z6
	VMOVUPD (SI)(R11*1), Z7
	TRANSPOSE8
	ADDROW(Z8, (DI), Z16)
	ADDROW(Z9, (DI)(R12*1), Z17)
	ADDROW(Z10, (DI)(R12*2), Z18)
	ADDROW(Z11, (DI)(R13*1), Z19)
	ADDROW(Z12, (DI)(R12*4), Z20)
	ADDROW(Z13, (DI)(R14*1), Z21)
	ADDROW(Z14, (DI)(R13*2), Z22)
	ADDROW(Z15, (DI)(BX*1), Z23)
	ADDQ    $64, SI
	LEAQ    (DI)(R12*8), DI
	DECQ    CX
	JNZ     addLoop
	VZEROUPPER
	RET

// ROWSTEP is one step of rowDotAVX512's short path: every lane whose column
// has an entry left (Z10 < Z11, K1) adds the product of window entry Z10 to
// its sum in Z2, and every lane moves on one entry.
#define ROWSTEP \
	VPCMPQ    $1, Z11, Z10, K1; \
	VMOVDQA64 Z10, Z12; \
	VPERMI2PD Z8, Z6, Z12; \
	VADDPD    Z12, Z2, K1, Z2; \
	VPADDQ    Z28, Z10, Z10

// func rowDotAVX512(drow, arow *float64, colPtr, rowIdx *int32, vals *float64, groups, nnz, lda int) (ok bool)
//
// For each of the groups groups of eight columns j = 8g ... 8g+7 of the CSC
// block (colPtr, rowIdx, vals; nnz stored entries): drow[j] += s, where s
// starts at +0 and adds, in stored order, each entry's rounded product
// arow[rowIdx[e]] * vals[e] — the column loop of refMulAddDSRowDot, lane c of
// a ZMM register holding column 8g+c. Step t of a group takes entry
// colPtr[j]+t of every column longer than t (a mask) and adds its product
// with one masked VADDPD. Every operation has the first source the compiled
// column loop gives it (arow of the product, s of both sums), so a NaN keeps
// the same payload too.
//
// A group whose entries number at most 16 loads them contiguously, gathers
// only arow (two VGATHERDPD, the second under the mask of entries 8-15) and
// deals the products out to the steps with VPERMI2PD, the first four
// (ROWSTEP) with no test for the end between them; a longer one gathers each
// step's row indices, values and arow. A group's column bounds are checked
// against [0, nnz] before any of its row indices is read, and each row index
// against [0, lda) before a value or arow is read for it, compared unsigned;
// a failed check returns ok = false with drow written up to the group in
// flight. groups >= 1 and nnz >= 1.
TEXT ·rowDotAVX512(SB), NOSPLIT, $0-65
	MOVQ drow+0(FP), DI
	MOVQ arow+8(FP), SI
	MOVQ colPtr+16(FP), R8
	MOVQ rowIdx+24(FP), R9
	MOVQ vals+32(FP), R10
	MOVQ groups+40(FP), R11
	MOVQ nnz+48(FP), R12
	MOVQ lda+56(FP), R13
	// Row indices are int32: a dense row wider than 2^31 bounds none of them.
	MOVQ    $0x80000000, AX
	CMPQ    R13, AX
	CMOVQHI AX, R13
	VPBROADCASTQ R12, Z31 // nnz
	VPBROADCASTQ R13, Z30 // lda, 64-bit lanes
	VPBROADCASTD R13, Z29 // lda, 32-bit lanes
	MOVL         $1, AX
	VPBROADCASTQ AX, Z28  // 1 in every lane: the step

group:
	// Z0 and Z1 hold the eight columns' first and end entries, 64 bits a
	// lane; AX and BX the group's window [colPtr[j], colPtr[j+8]).
	VPMOVSXDQ (R8), Z0
	VPMOVSXDQ 4(R8), Z1
	VPCMPUQ   $6, Z31, Z0, K1
	VPCMPUQ   $6, Z31, Z1, K2
	KORTESTW  K1, K2
	JNZ       bad
	MOVLQSX   (R8), AX
	MOVLQSX   32(R8), BX
	VPXORQ    Z2, Z2, Z2 // the eight sums
	MOVQ      BX, CX
	SUBQ      AX, CX
	JZ        fold
	CMPQ      CX, $16
	JA        long

	// Up to 16 entries: K1 selects them in a 16-lane load of row indices
	// (Z3) and K1, K4 in the two 8-lane loads of values (Z4, Z5).
	MOVL      $1, DX
	SHLL      CX, DX
	DECL      DX
	KMOVW     DX, K1
	VMOVDQU32.Z (R9)(AX*4), K1, Z3
	VPCMPUD   $5, Z29, Z3, K1, K2
	KORTESTW  K2, K2
	JNZ       bad
	KSHIFTRW  $8, K1, K4
	VMOVUPD.Z (R10)(AX*8), K1, Z4
	VPXORQ    Z6, Z6, Z6
	KMOVW     K1, K2
	VGATHERDPD (SI)(Y3*8), K2, Z6
	VMULPD    Z4, Z6, Z6 // the products of entries 0-7, arow first
	// Entries 8-15 under K4, with no branch on the window's length: an empty
	// K4 loads nothing, and its zero products are never taken.
	VMOVUPD.Z 64(R10)(AX*8), K4, Z5
	VEXTRACTI64X4 $1, Z3, Y7
	VPXORQ    Z8, Z8, Z8
	VGATHERDPD (SI)(Y7*8), K4, Z8
	VMULPD    Z5, Z8, Z8 // entries 8-15

	// Z10 and Z11 count each column's entries from the window's start:
	// Z10 the next one, Z11 the end. Lane c of a step adds the product of
	// window entry Z10[c], which VPERMI2PD takes from Z6:Z8 by its low four
	// bits. Where a group's steps end depends on its longest column, a
	// branch no predictor learns, so the first four steps run with no test
	// between them (rowDotFixedSteps in the tests): a lane whose column has
	// ended is masked off and adds nothing. Only the rare longer columns
	// reach the loop.
	VPBROADCASTQ AX, Z9
	VPSUBQ    Z9, Z0, Z10
	VPSUBQ    Z9, Z1, Z11
	ROWSTEP
	ROWSTEP
	ROWSTEP
	ROWSTEP

step:
	VPCMPQ    $1, Z11, Z10, K1
	KORTESTW  K1, K1
	JZ        fold
	VMOVDQA64 Z10, Z12
	VPERMI2PD Z8, Z6, Z12
	VADDPD    Z12, Z2, K1, Z2
	VPADDQ    Z28, Z10, Z10
	JMP       step

long:
	// More than 16 entries (or a window that runs backwards): each step
	// gathers its row indices (Y3), checks them, then its values (Z4) and
	// arow (Z6), the entries being Z10's.
	VMOVDQA64 Z0, Z10

longStep:
	VPCMPQ    $1, Z1, Z10, K1
	KORTESTW  K1, K1
	JZ        fold
	KMOVW     K1, K2
	VPGATHERQD (R9)(Z10*4), K2, Y3
	VPMOVSXDQ Y3, Z3
	VPCMPUQ   $5, Z30, Z3, K1, K2
	KORTESTW  K2, K2
	JNZ       bad
	KMOVW     K1, K2
	VGATHERQPD (R10)(Z10*8), K2, Z4
	KMOVW     K1, K2
	VGATHERQPD (SI)(Z3*8), K2, Z6
	VMULPD    Z4, Z6, Z6
	VADDPD    Z6, Z2, K1, Z2
	VPADDQ    Z28, Z10, Z10
	JMP       longStep

fold:
	// drow[j:j+8] += s, s the first source as the compiled loop has it; an
	// empty column adds +0.
	VADDPD  (DI), Z2, Z13
	VMOVUPD Z13, (DI)
	ADDQ    $64, DI
	ADDQ    $32, R8
	DECQ    R11
	JNZ     group
	VZEROUPPER
	MOVB    $1, ok+64(FP)
	RET

bad:
	VZEROUPPER
	MOVB $0, ok+64(FP)
	RET
