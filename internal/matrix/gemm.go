package matrix

import "sync"

// Cache-blocked, register-tiled dense GEMM (the DD branch of MulAddTransInto).
//
// The kernel follows the classic three-level blocking scheme (Goto/BLIS):
// the k dimension is split into panels of gemmKC, the result columns into
// strips of gemmNC and the result rows into strips of gemmMC, so that the
// packed B panel (gemmKC x gemmNR micro-panels) stays L1-resident and the
// packed A strip (gemmMC x gemmKC) stays L2-resident while the micro-kernel
// sweeps it. The innermost unit is a 2x4 register accumulator block
// (gemmMR x gemmNR): eight scalar accumulators that touch dst exactly once
// per (i,k,j) macro-tile, removing the load/store-per-element traffic of the
// naive ikj loop. 2x4 is chosen for amd64's sixteen XMM registers: the eight
// accumulators plus two A values and four B values (fourteen live floats)
// fit without spilling, whereas a 4x4 block's sixteen accumulators alone
// force spill traffic into every iteration of the k loop.
//
// Operand transposition is absorbed entirely by the packing routines: a
// transposed operand is read with swapped strides while being packed, so the
// NT/TN/TT variants run the exact same micro-kernel as NN and never
// materialize a transposed copy.
//
// Above gemmParMin flops the MC-strip loop is partitioned across the shared
// kernel worker pool (parallel.go): the packed B strip is shared read-only,
// every strip packs A into an arena it holds for that strip, and strips write
// disjoint result rows, so the parallel kernel is race-free and bit-identical
// to the serial one at every worker count (the k-panel loop — the only loop
// whose order reaches the floating-point accumulation — stays serial).
const (
	// gemmMR x gemmNR is the register accumulator block of the micro-kernel.
	gemmMR = 2
	gemmNR = 4
	// gemmKC is the k-panel depth: one packed B micro-panel is
	// gemmKC*gemmNR*8 = 8 KiB, comfortably L1-resident.
	gemmKC = 256
	// gemmMC rows of packed A per strip: gemmMC*gemmKC*8 = 128 KiB, sized
	// for L2.
	gemmMC = 64
	// gemmNC columns of packed B per strip: bounds the packed B buffer at
	// gemmKC*gemmNC*8 = 1 MiB.
	gemmNC = 512
	// gemmSmall is the flop threshold (n*m*p) below which the packing
	// overhead does not pay off and a plain strided triple loop is used.
	gemmSmall = 32 * 32 * 32
	// gemmParMin is the flop threshold (n*m*p) below which one multiply is
	// not worth fanning out across the worker pool: under ~2 Mflop the
	// per-macro-tile barrier costs more than the strips save.
	gemmParMin = 128 * 128 * 128
)

// Pack-buffer arenas. The A and B halves are pooled separately because the
// parallel kernel shares one packed B strip across all participants while
// every strip packs A into its own arena; sync.Pool hands each
// Get an exclusive buffer, which is exactly the per-strip ownership the
// race-free packing needs. Steady-state multiplications allocate nothing.
var gemmABufPool = sync.Pool{
	New: func() any {
		buf := make([]float64, gemmMC*gemmKC)
		return &buf
	},
}

var gemmBBufPool = sync.Pool{
	New: func() any {
		buf := make([]float64, gemmKC*gemmNC)
		return &buf
	},
}

// transDims returns the logical dimensions of op(x): x itself, or its
// transpose when t is set.
func transDims(x Block, t bool) (rows, cols int) {
	if t {
		return x.Cols(), x.Rows()
	}
	return x.Rows(), x.Cols()
}

// mulAddDDTrans computes dst += op(a) * op(b) for dense operands, where
// op(x) is x or its transpose. Large shapes run the packed tiled kernel;
// small ones fall back to a strided triple loop.
func mulAddDDTrans(dst, a, b *DenseBlock, aT, bT bool) {
	n, m := transDims(a, aT)
	_, p := transDims(b, bT)
	if n == 0 || m == 0 || p == 0 {
		return
	}
	if n*m*p < gemmSmall {
		mulAddDDSmall(dst, a, b, aT, bT)
		return
	}
	gemmStrided(dst.Data, dst.cols, n, p, a.Data, a.cols, aT, b.Data, b.cols, bT, m, KernelWorkers())
}

// gemmStrided is the packed tiled kernel over raw strided storage:
// C[0:n, 0:p] (leading dimension ldc) += op(A) * op(B), where op(A) is n x m
// read from a/lda (transposed when aT) and op(B) is m x p from b/ldb. It is
// shared by the block entry point above and by Strassen's quadrant views,
// which are strided sub-matrices with ld > cols.
func gemmStrided(c []float64, ldc, n, p int, a []float64, lda int, aT bool, b []float64, ldb int, bT bool, m, workers int) {
	bbufp := gemmBBufPool.Get().(*[]float64)
	bbuf := *bbufp
	iStrips := (n + gemmMC - 1) / gemmMC
	parallel := workers > 1 && iStrips > 1 && n*m*p >= gemmParMin
	var abufp *[]float64
	if !parallel {
		abufp = gemmABufPool.Get().(*[]float64)
	}
	for k0 := 0; k0 < m; k0 += gemmKC {
		kw := min(gemmKC, m-k0)
		for j0 := 0; j0 < p; j0 += gemmNC {
			jw := min(gemmNC, p-j0)
			gemmPackB(bbuf, b, ldb, bT, k0, kw, j0, jw)
			if parallel {
				k0, j0, kw, jw := k0, j0, kw, jw
				parallelStrips(iStrips, workers, func(s int) {
					abufp := gemmABufPool.Get().(*[]float64)
					i0 := s * gemmMC
					iw := min(gemmMC, n-i0)
					gemmPackA(*abufp, a, lda, aT, i0, iw, k0, kw)
					gemmMacro(c, ldc, i0, j0, iw, jw, kw, *abufp, bbuf)
					gemmABufPool.Put(abufp)
				})
				continue
			}
			for i0 := 0; i0 < n; i0 += gemmMC {
				iw := min(gemmMC, n-i0)
				gemmPackA(*abufp, a, lda, aT, i0, iw, k0, kw)
				gemmMacro(c, ldc, i0, j0, iw, jw, kw, *abufp, bbuf)
			}
		}
	}
	if abufp != nil {
		gemmABufPool.Put(abufp)
	}
	gemmBBufPool.Put(bbufp)
}

// mulAddDDSmall is the unpacked fallback for shapes too small to amortize
// packing: the seed ikj loop generalized to strided (transposed) reads,
// minus the per-element zero test.
func mulAddDDSmall(dst, a, b *DenseBlock, aT, bT bool) {
	n, m := transDims(a, aT)
	_, p := transDims(b, bT)
	mulAddSmallStrided(dst.Data, dst.cols, n, m, p, a.Data, a.cols, aT, b.Data, b.cols, bT)
}

// mulAddSmallStrided is the strided triple loop over raw storage, shared by
// the small-block fallback and Strassen's peeling leaves.
func mulAddSmallStrided(c []float64, ldc, n, m, p int, a []float64, lda int, aT bool, b []float64, ldb int, bT bool) {
	ra, ca := lda, 1
	if aT {
		ra, ca = 1, lda
	}
	rb, cb := ldb, 1
	if bT {
		rb, cb = 1, ldb
	}
	for i := 0; i < n; i++ {
		drow := c[i*ldc : i*ldc+p]
		for k := 0; k < m; k++ {
			av := a[i*ra+k*ca]
			bbase := k * rb
			if cb == 1 {
				brow := b[bbase : bbase+p]
				for j, bv := range brow {
					drow[j] += av * bv
				}
			} else {
				for j := 0; j < p; j++ {
					drow[j] += av * b[bbase+j*cb]
				}
			}
		}
	}
}

// gemmPackA packs the iw x kw strip of op(A) starting at (i0, k0) into
// micro-panels of gemmMR rows, k-major within a panel:
// buf[panel*gemmMR*kw + k*gemmMR + r] = op(A)[i0+panel*gemmMR+r, k0+k],
// where op(A) is read from the strided storage a with leading dimension lda
// (swapped strides when aT). Ragged panels are zero-padded so the
// micro-kernel never branches on row count.
func gemmPackA(buf []float64, a []float64, lda int, aT bool, i0, iw, k0, kw int) {
	for ip := 0; ip < iw; ip += gemmMR {
		panel := buf[(ip/gemmMR)*gemmMR*kw:]
		ir := min(gemmMR, iw-ip)
		if aT {
			// op(A)[i,k] = A[k,i]: one stored row feeds one k slot.
			for k := 0; k < kw; k++ {
				row := a[(k0+k)*lda+i0+ip:]
				for r := 0; r < ir; r++ {
					panel[k*gemmMR+r] = row[r]
				}
				for r := ir; r < gemmMR; r++ {
					panel[k*gemmMR+r] = 0
				}
			}
			continue
		}
		for r := 0; r < ir; r++ {
			row := a[(i0+ip+r)*lda+k0:]
			for k := 0; k < kw; k++ {
				panel[k*gemmMR+r] = row[k]
			}
		}
		for r := ir; r < gemmMR; r++ {
			for k := 0; k < kw; k++ {
				panel[k*gemmMR+r] = 0
			}
		}
	}
}

// gemmPackB packs the kw x jw strip of op(B) starting at (k0, j0) into
// micro-panels of gemmNR columns, k-major within a panel:
// buf[panel*gemmNR*kw + k*gemmNR + c] = op(B)[k0+k, j0+panel*gemmNR+c],
// reading the strided storage b with leading dimension ldb.
func gemmPackB(buf []float64, b []float64, ldb int, bT bool, k0, kw, j0, jw int) {
	for jp := 0; jp < jw; jp += gemmNR {
		panel := buf[(jp/gemmNR)*gemmNR*kw:]
		jr := min(gemmNR, jw-jp)
		if bT {
			// op(B)[k,j] = B[j,k]: one stored row feeds one column slot.
			for c := 0; c < jr; c++ {
				row := b[(j0+jp+c)*ldb+k0:]
				for k := 0; k < kw; k++ {
					panel[k*gemmNR+c] = row[k]
				}
			}
			for c := jr; c < gemmNR; c++ {
				for k := 0; k < kw; k++ {
					panel[k*gemmNR+c] = 0
				}
			}
			continue
		}
		for k := 0; k < kw; k++ {
			row := b[(k0+k)*ldb:]
			for c := 0; c < jr; c++ {
				panel[k*gemmNR+c] = row[j0+jp+c]
			}
			for c := jr; c < gemmNR; c++ {
				panel[k*gemmNR+c] = 0
			}
		}
	}
}

// gemmMacro sweeps the packed strips with the register micro-kernel. The
// B micro-panel is held innermost-loop-invariant (L1) while A micro-panels
// stream from the packed L2 strip.
func gemmMacro(c []float64, ldc, i0, j0, iw, jw, kw int, abuf, bbuf []float64) {
	for jp := 0; jp < jw; jp += gemmNR {
		jr := min(gemmNR, jw-jp)
		bp := bbuf[(jp/gemmNR)*gemmNR*kw : (jp/gemmNR+1)*gemmNR*kw]
		for ip := 0; ip < iw; ip += gemmMR {
			ir := min(gemmMR, iw-ip)
			ap := abuf[(ip/gemmMR)*gemmMR*kw : (ip/gemmMR+1)*gemmMR*kw]
			ci := (i0+ip)*ldc + j0 + jp
			if ir == gemmMR && jr == gemmNR {
				if gemmHaveAVX {
					gemmMicroAVX(&c[ci], ldc, &ap[0], &bp[0], kw)
				} else {
					gemmMicro2x4(c[ci:], ldc, ap, bp, kw)
				}
			} else {
				gemmMicroEdge(c[ci:], ldc, ir, jr, ap, bp, kw)
			}
		}
	}
}

// gemmMicro2x4 accumulates a full 2x4 tile: c[0:2, 0:4] += Ap * Bp over kw,
// with the eight partial sums held in registers for the whole k loop. The k
// loop is unrolled twice; the array-pointer conversions replace the eight
// per-iteration bounds checks with one check per packed panel load.
func gemmMicro2x4(c []float64, ldc int, ap, bp []float64, kw int) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	for k := 0; k < kw; k++ {
		a := (*[gemmMR]float64)(ap[gemmMR*k:])
		b := (*[gemmNR]float64)(bp[gemmNR*k:])
		a0, a1 := a[0], a[1]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
	}
	r0 := (*[gemmNR]float64)(c)
	r1 := (*[gemmNR]float64)(c[ldc:])
	r0[0] += c00
	r0[1] += c01
	r0[2] += c02
	r0[3] += c03
	r1[0] += c10
	r1[1] += c11
	r1[2] += c12
	r1[3] += c13
}

// gemmMicroEdge handles ragged tiles (fewer than gemmMR rows or gemmNR
// columns): the packed panels are zero-padded so it can accumulate a full
// gemmMR x gemmNR tile locally and write back only the live ir x jr corner.
func gemmMicroEdge(c []float64, ldc, ir, jr int, ap, bp []float64, kw int) {
	var t [gemmMR * gemmNR]float64
	ap = ap[:gemmMR*kw]
	bp = bp[:gemmNR*kw]
	for k := 0; k < kw; k++ {
		b0 := bp[gemmNR*k]
		b1 := bp[gemmNR*k+1]
		b2 := bp[gemmNR*k+2]
		b3 := bp[gemmNR*k+3]
		for i := 0; i < gemmMR; i++ {
			av := ap[gemmMR*k+i]
			t[gemmNR*i] += av * b0
			t[gemmNR*i+1] += av * b1
			t[gemmNR*i+2] += av * b2
			t[gemmNR*i+3] += av * b3
		}
	}
	for i := 0; i < ir; i++ {
		for j := 0; j < jr; j++ {
			c[i*ldc+j] += t[gemmNR*i+j]
		}
	}
}
