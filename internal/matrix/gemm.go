package matrix

import (
	"math"
	"sync"
)

// Cache-blocked, register-tiled dense GEMM (the DD branch of MulAddTransInto).
//
// The kernel follows the classic three-level blocking scheme (Goto/BLIS):
// the k dimension is split into panels of gemmKC, the result columns into
// strips of gemmNC and the result rows into strips of at most gemmMC, and
// both operands are packed once per strip into micro-panels (A in mr-row
// panels, B in nr-column panels, k-major, zero-padded) that the micro-kernel
// streams through sequentially. The micro-kernel holds an mr x nr tile of
// partial sums in registers for a whole k panel and touches dst once per
// tile and panel.
//
// The tile is sized to the machine, not fixed: one gemmKernel descriptor
// {mr, nr, fn} is chosen at init from what the CPU and OS offer (8x16 on
// AVX-512, 4x8 on AVX with FMA3, the pure-Go loop elsewhere), and the
// packers, the macro loop and the tests take mr and nr from it. The sizing
// rule is accumulators >= FMA latency x FMA ports: every accumulator register
// is one dependent chain of fused multiply-adds, an FMA takes 4 cycles and
// two can start per cycle, so fewer than 8 independent chains leave the FMA
// units idle. The tile is then made as large as the register file allows,
// because an mr x nr tile does mr*nr multiply-adds per mr+nr loads; past
// 8x16 that stops paying (an 8x24 AVX-512 tile measured no faster, see
// gemm_amd64.s).
//
// Three things decide the bits of a result and are the same for every
// kernel, tile size and worker count:
//
//   - gemmKC: an element's products are summed k-ascending into an
//     accumulator that starts at zero for each k panel, and each panel's
//     sum is added into dst in panel order. Changing the panel depth
//     regroups the sum.
//   - the routing predicate n*m*p < gemmSmall: small products run
//     mulAddSmallStrided, which fuses each product straight into dst.
//   - fused multiply-add: every product term of a dense x dense multiply is
//     added with one rounding (math.FMA, VFMADD231PD), in the tiles and in
//     the small loop alike (KernelVersion 3). The sparse kernels of mul.go
//     are the other side of the rule: multiply, round, then add.
//
// Everything else — mr, nr, gemmMC, gemmNC, how many strips run at once — only
// decides which elements are computed together, never how one is summed.
//
// Operand transposition is absorbed entirely by the packing routines: a
// transposed operand is read with swapped strides while being packed, so the
// NT/TN/TT variants run the exact same micro-kernel as NN and never
// materialize a transposed copy. A packer either copies runs of mr (nr)
// contiguous elements or, when the micro-panel's short side runs down the
// operand's columns, transposes with packTransLd (row streams in, whole cache
// lines out; 8x8 blocks through registers on AVX-512).
//
// Above gemmParMin flops the MC-strip loop is partitioned across the shared
// kernel worker pool (parallel.go): the packed B panels are shared read-only,
// every strip packs A into an arena it holds for that strip, and strips write
// disjoint result rows, so the parallel kernel is race-free and bit-identical
// to the serial one at every worker count (every strip takes its k panels in
// ascending order — the only order that reaches the floating-point
// accumulation). The strip height follows the worker count (gemmStripRows),
// so a product with few result rows — GNMF's 64x1632 * 1632x64 — still cuts
// into one strip per worker.
const (
	// gemmKC is the k-panel depth. Part of the numerical contract (see
	// above); at 256 a packed 16-column B micro-panel is 32 KiB and an
	// 8-row A micro-panel 16 KiB.
	gemmKC = 256
	// gemmMC is the most rows of packed A per strip: gemmMC*gemmKC*8 = 128
	// KiB, sized for L2. A multiple of every kernel's mr.
	gemmMC = 64
	// gemmNC columns of packed B per strip: bounds the packed B buffer at
	// gemmKC*gemmNC*8 = 1 MiB. A multiple of every kernel's nr.
	gemmNC = 512
	// gemmTileMax bounds mr*nr over all kernels: the scratch tile a ragged
	// edge is computed in.
	gemmTileMax = 8 * 16
	// gemmSmall is the flop threshold (n*m*p) below which the packing
	// overhead does not pay off and a plain strided triple loop is used.
	// Part of the numerical contract (see above).
	gemmSmall = 32 * 32 * 32
	// gemmParMin is the flop threshold (n*m*p) below which one multiply is
	// not worth fanning out across the worker pool: under ~2 Mflop the
	// per-macro-tile barrier costs more than the strips save.
	gemmParMin = 128 * 128 * 128
)

// cpuFeatures is what detectCPU found: the vector widths the CPU implements
// and the OS preserves. Every assembly kernel of the package is gated on it.
type cpuFeatures struct {
	avx    bool // 256-bit YMM instructions (axpyAVX)
	fma    bool // FMA3 on YMM registers (gemmMicroAVX)
	avx512 bool // 512-bit ZMM instructions, fused multiply-add included (gemmMicroAVX512, sparse_amd64.s)
}

// cpu is read-only outside tests.
var cpu = detectCPU()

// gemmKernel describes one register micro-kernel: fn computes
// c[0:mr, 0:nr] += Ap * Bp over kw k steps, where c has leading dimension
// ldc, Ap is a packed mr-row A micro-panel and Bp a packed nr-column B
// micro-panel (see gemmPackA, gemmPackB). All kernels are bit-identical.
type gemmKernel struct {
	name   string
	mr, nr int
	fn     func(c []float64, ldc int, ap, bp []float64, kw int)
}

// gemmGoKernel is the portable micro-kernel.
var gemmGoKernel = gemmKernel{name: "go-2x4", mr: gemmGoMR, nr: gemmGoNR, fn: gemmMicroGo}

// gemmKern is the micro-kernel every packed product runs: the fastest the
// CPU offers. Read-only outside tests.
var gemmKern = gemmKernelsFor(cpu)[0]

// GemmKernel names the micro-kernel in use, for benchmark reports:
// "avx512-8x16", "avx-4x8" or "go-2x4".
func GemmKernel() string { return gemmKern.name }

// Pack-buffer arenas. The A and B halves are pooled separately because the
// parallel kernel shares one packed B strip across all participants while
// every strip packs A into its own arena; sync.Pool hands each
// Get an exclusive buffer, which is exactly the per-strip ownership the
// race-free packing needs. The A arena carries the strip's scratch tile
// behind the packed panels. Steady-state multiplications allocate nothing.
var gemmABufPool = sync.Pool{
	New: func() any {
		buf := make([]float64, gemmMC*gemmKC+gemmTileMax)
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
		mulAddSmallStrided(dst.Data, dst.cols, n, m, p, a.Data, a.cols, aT, b.Data, b.cols, bT)
		return
	}
	gemmStrided(dst.Data, dst.cols, n, p, a.Data, a.cols, aT, b.Data, b.cols, bT, m, KernelWorkers())
}

// gemmStripRows returns the height of one MC strip for a product of n result
// rows run by the given number of workers with an mr-row micro-kernel: the
// rows are shared out evenly in whole micro-panels, up to gemmMC a strip. One
// worker gets min(n, gemmMC) rows a strip rounded up to mr.
func gemmStripRows(n, workers, mr int) int {
	perWorker := (n + workers - 1) / workers
	return min(gemmMC, roundUp(perWorker, mr))
}

// roundUp returns x rounded up to a multiple of m.
func roundUp(x, m int) int { return (x + m - 1) / m * m }

// gemmStrided is the packed tiled kernel over raw strided storage:
// C[0:n, 0:p] (leading dimension ldc) += op(A) * op(B), where op(A) is n x m
// read from a/lda (transposed when aT) and op(B) is m x p from b/ldb. The
// worker count is an argument so the tests can pin it.
//
// For each strip of gemmNC result columns the B arena takes as many k panels
// as fit (one for a full strip, all seven of a 64-column 1632-deep product)
// and the row strips then run through those panels in k order, so the
// workers meet once per arena fill, not once per panel.
func gemmStrided(c []float64, ldc, n, p int, a []float64, lda int, aT bool, b []float64, ldb int, bT bool, m, workers int) {
	kern := gemmKern
	if n*m*p < gemmParMin {
		workers = 1
	}
	mc := gemmStripRows(n, workers, kern.mr)
	iStrips := (n + mc - 1) / mc
	parallel := workers > 1 && iStrips > 1
	bbufp := gemmBBufPool.Get().(*[]float64)
	bbuf := *bbufp
	var abufp *[]float64
	if !parallel {
		abufp = gemmABufPool.Get().(*[]float64)
	}
	for j0 := 0; j0 < p; j0 += gemmNC {
		jw := min(gemmNC, p-j0)
		jwPacked := roundUp(jw, kern.nr)
		depth := len(bbuf) / (gemmKC * jwPacked) * gemmKC // k steps of packed B the arena holds
		for k0 := 0; k0 < m; k0 += depth {
			kd := min(depth, m-k0)
			for k := 0; k < kd; k += gemmKC {
				gemmPackB(bbuf[k*jwPacked:], kern.nr, b, ldb, bT, k0+k, min(gemmKC, kd-k), j0, jw)
			}
			if parallel {
				k0, j0 := k0, j0 // the loop variables would move to the heap for the serial path too
				Parallel(iStrips, workers, func(s int) {
					abufp := gemmABufPool.Get().(*[]float64)
					gemmStrip(kern, c, ldc, s*mc, min(mc, n-s*mc), j0, jw, a, lda, aT, k0, kd, *abufp, bbuf)
					gemmABufPool.Put(abufp)
				})
				continue
			}
			for i0 := 0; i0 < n; i0 += mc {
				gemmStrip(kern, c, ldc, i0, min(mc, n-i0), j0, jw, a, lda, aT, k0, kd, *abufp, bbuf)
			}
		}
	}
	if abufp != nil {
		gemmABufPool.Put(abufp)
	}
	gemmBBufPool.Put(bbufp)
}

// gemmStrip adds to result rows [i0, i0+iw) of the column strip [j0, j0+jw)
// the k steps [k0, k0+kd), one gemmKC panel after the other; bbuf holds the
// packed B panels of those steps back to back.
func gemmStrip(kern gemmKernel, c []float64, ldc, i0, iw, j0, jw int, a []float64, lda int, aT bool, k0, kd int, abuf, bbuf []float64) {
	jwPacked := roundUp(jw, kern.nr)
	for k := 0; k < kd; k += gemmKC {
		kw := min(gemmKC, kd-k)
		gemmPackA(abuf, kern.mr, a, lda, aT, i0, iw, k0+k, kw)
		gemmMacro(kern, c, ldc, i0, j0, iw, jw, kw, abuf, bbuf[k*jwPacked:])
	}
}

// mulAddSmallStrided is the unpacked fallback for shapes too small to
// amortize packing: the seed ikj loop generalized to strided (transposed)
// reads, minus the per-element zero test, each product fused into dst.
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
					drow[j] = math.FMA(av, bv, drow[j])
				}
			} else {
				for j := 0; j < p; j++ {
					drow[j] = math.FMA(av, b[bbase+j*cb], drow[j])
				}
			}
		}
	}
}

// gemmPackA packs the iw x kw strip of op(A) starting at (i0, k0) into
// micro-panels of mr rows, k-major within a panel:
// buf[panel*mr*kw + k*mr + r] = op(A)[i0+panel*mr+r, k0+k],
// where op(A) is read from the strided storage a with leading dimension lda
// (swapped strides when aT). Ragged panels are zero-padded so the
// micro-kernel never branches on row count.
func gemmPackA(buf []float64, mr int, a []float64, lda int, aT bool, i0, iw, k0, kw int) {
	gemmPack(buf, mr, a, lda, !aT, i0, iw, k0, kw)
}

// gemmPackB packs the kw x jw strip of op(B) starting at (k0, j0) into
// micro-panels of nr columns, k-major within a panel:
// buf[panel*nr*kw + k*nr + c] = op(B)[k0+k, j0+panel*nr+c],
// reading the strided storage b with leading dimension ldb.
func gemmPackB(buf []float64, nr int, b []float64, ldb int, bT bool, k0, kw, j0, jw int) {
	gemmPack(buf, nr, b, ldb, bT, j0, jw, k0, kw)
}

// gemmPack is both packers. A micro-panel holds w lanes (rows of op(A),
// columns of op(B)) side by side for each of kw k steps:
// buf[panel*w*kw + k*w + l] = lane l0+panel*w+l at step k0+k, zero for lanes
// at or beyond lw. With lanesAreRows a lane is a stored row of src and the
// panel is its transpose (packTrans: w row streams in, whole cache lines
// out); otherwise a lane is a stored column, step k is a stored row, and the
// w lanes of one step are contiguous in src.
func gemmPack(buf []float64, w int, src []float64, ld int, lanesAreRows bool, l0, lw, k0, kw int) {
	if ragged := lw % w; ragged != 0 {
		clear(buf[(lw-ragged)*kw : (lw-ragged+w)*kw])
	}
	if lanesAreRows {
		for lp := 0; lp < lw; lp += w {
			packTransLd(buf[lp*kw:], w, src, ld, l0+lp, min(w, lw-lp), k0, kw)
		}
		return
	}
	// gemmPackSteps steps at a time, panel by panel: each panel's run of
	// buf is written whole while src is read from that many rows, not all
	// kw (whose stride may alias in the cache: a 512-wide block's rows are
	// 4 KiB apart). A full panel of the micro-kernels' widths takes each
	// step as one fixed-size array rather than through a copy call; the
	// ragged panel is copied.
	full := lw - lw%w
	for kt := 0; kt < kw; kt += gemmPackSteps {
		kn := min(gemmPackSteps, kw-kt)
		for lp := 0; lp < full; lp += w {
			dst, lanes := buf[lp*kw+kt*w:][:kn*w], src[(k0+kt)*ld+l0+lp:]
			switch w {
			case 16:
				for k := 0; k < kn; k++ {
					*(*[16]float64)(dst[k*16:]) = *(*[16]float64)(lanes[k*ld:])
				}
			case 8:
				for k := 0; k < kn; k++ {
					*(*[8]float64)(dst[k*8:]) = *(*[8]float64)(lanes[k*ld:])
				}
			default:
				for k := 0; k < kn; k++ {
					copy(dst[k*w:(k+1)*w], lanes[k*ld:])
				}
			}
		}
	}
	if full < lw {
		for k := 0; k < kw; k++ {
			row := src[(k0+k)*ld+l0:][:lw]
			copy(buf[full*kw+k*w:], row[full:])
		}
	}
}

// gemmPackSteps is how many k steps gemmPack moves across every panel
// before the next: 16 rows of src, and for a 16-lane panel 2 KiB of buf.
const gemmPackSteps = 16

// gemmMacro sweeps the packed strips with the register micro-kernel. The
// B micro-panel is held innermost-loop-invariant (L1) while A micro-panels
// stream from the packed L2 strip. A ragged tile runs the same kernel into
// the scratch tile behind abuf's panels and adds the live corner into c: the
// packed panels are zero-padded, and the tile starts at -0, for which
// -0 + acc is acc bit for bit. (+0 would not do: a fused step whose exact
// result underflows leaves an accumulator of -0.)
func gemmMacro(kern gemmKernel, c []float64, ldc, i0, j0, iw, jw, kw int, abuf, bbuf []float64) {
	mr, nr := kern.mr, kern.nr
	tile := abuf[len(abuf)-gemmTileMax:][:mr*nr]
	for jp := 0; jp < jw; jp += nr {
		jr := min(nr, jw-jp)
		bp := bbuf[jp*kw : (jp+nr)*kw]
		for ip := 0; ip < iw; ip += mr {
			ir := min(mr, iw-ip)
			ap := abuf[ip*kw : (ip+mr)*kw]
			ci := (i0+ip)*ldc + j0 + jp
			if ir == mr && jr == nr {
				kern.fn(c[ci:], ldc, ap, bp, kw)
				continue
			}
			for i := range tile {
				tile[i] = negZero
			}
			kern.fn(tile, nr, ap, bp, kw)
			for i := 0; i < ir; i++ {
				crow := c[ci+i*ldc : ci+i*ldc+jr]
				for j, t := range tile[i*nr : i*nr+jr] {
					crow[j] += t
				}
			}
		}
	}
}

// negZero is -0, the additive identity of IEEE 754 arithmetic: -0 + x is x
// for every x, -0 included.
var negZero = math.Copysign(0, -1)

// gemmGoMR x gemmGoNR is the pure-Go micro-kernel's tile: eight scalar
// accumulators, two A values and four B values fit amd64's sixteen XMM
// registers without spilling (a loop nest over an accumulator array, which
// the compiler keeps in memory, measured half as fast).
const (
	gemmGoMR = 2
	gemmGoNR = 4
)

// gemmMicroGo is the portable micro-kernel and the definition the assembly
// ones are held to: each of the tile's partial sums starts at zero, takes
// its kw products in k order, each fused into it with one rounding
// (math.FMA), and is added into c once. math.FMA is one instruction on
// amd64 with FMA3 and on arm64; on an x86 without FMA3 it is a software
// routine, slow but with the same bits. The array-pointer conversions
// replace the per-element bounds checks with one check per packed panel
// load.
func gemmMicroGo(c []float64, ldc int, ap, bp []float64, kw int) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	for k := 0; k < kw; k++ {
		a := (*[gemmGoMR]float64)(ap[gemmGoMR*k:])
		b := (*[gemmGoNR]float64)(bp[gemmGoNR*k:])
		a0, a1 := a[0], a[1]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 = math.FMA(a0, b0, c00)
		c01 = math.FMA(a0, b1, c01)
		c02 = math.FMA(a0, b2, c02)
		c03 = math.FMA(a0, b3, c03)
		c10 = math.FMA(a1, b0, c10)
		c11 = math.FMA(a1, b1, c11)
		c12 = math.FMA(a1, b2, c12)
		c13 = math.FMA(a1, b3, c13)
	}
	r0 := (*[gemmGoNR]float64)(c)
	r1 := (*[gemmGoNR]float64)(c[ldc:])
	r0[0] += c00
	r0[1] += c01
	r0[2] += c02
	r0[3] += c03
	r1[0] += c10
	r1[1] += c11
	r1[2] += c12
	r1[3] += c13
}
