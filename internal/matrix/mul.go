package matrix

import (
	"fmt"
	"math/bits"
	"sync"
)

// Block multiplication kernels. MulAddTransInto is the In-Place primitive of
// Section 5.3: all block products contributing to the same result block are
// accumulated directly into that block, so no intermediate buffers are
// allocated. The kernels specialize on the four density combinations; every
// multiplication result is dense, matching the worst-case sparsity estimate
// of Section 5.1 (multiplication output sparsity = 1).
//
// Every kernel is transpose-fused: MulAddTransInto computes
// dst += op(a)*op(b) where either operand may be logically transposed, and
// a plain product passes false, false. No transposed block is ever
// allocated: a sparse operand is transposed by reinterpreting CSC as CSR, a
// dense one while it is packed into pooled scratch. The dense x dense path
// runs the register-tiled GEMM in gemm.go.
//
// The sparse x dense and dense x sparse kernels follow one rule: stream the
// CSC operand once per block product, and make every stored non-zero one
// contiguous axpy y[0:w] += v * x[0:w] over all w lanes of the dense side
// (the result's columns when the sparse operand is on the left, its rows
// when it is on the right). Where a lane vector y of the result — a row of
// dst, a column accumulator — can take all its non-zeros from one list of
// (index, value) entries in ascending index, it gathers them: from a stored
// column of the CSC block, or from a row of its row layout (rowLayout), laid
// out by one counting pass the first time a product asks and kept with the
// block. The other form, A*S^T, sweeps the stored columns and scatters each
// entry into the lane vector it names. Whatever is not contiguous as stored — a
// transposed dense operand, or dst itself when its columns are the lanes —
// is transposed into scratch once per product rather than read by stride
// once per non-zero. A product large enough is cut into strips of disjoint
// result rows (sparse left) or columns (sparse right) run on the kernel
// worker pool (parallel.go). None of this reorders a sum: each result
// element receives exactly the floating-point operations of the plain loop
// nests kept as references in mul_sparse_test.go, at every worker count and
// with the assembly on or off. Each product term is rounded before it is
// added — float64(x*y), which forbids a compiler the fused multiply-add it
// would otherwise emit on arm64 — so the sparse kernels give the same bits
// on every architecture; only the dense x dense GEMM fuses (gemm.go). On
// AVX-512 a whole entry list runs in registers (gather), a row-dot sums
// eight result columns a register (rowDotAVX512), and the transposes move
// 8x8 blocks through registers (packTransLd, addTile); sparse_amd64.s.
//
// A block partition leaves CSC blocks with a stored entry or two per column,
// and for those a second rule holds: a path costs what the block stores, not
// what it could — no branch per column or column pair. The sparse x sparse
// A^T*B (mulAddSSTN) and the row-vector product (rowDotAVX512, and
// mulAddDSRowDotFlat without AVX-512) walk the stored entries once; the sums
// they form are again exactly those of the loops they replaced (refMulAddSS,
// refMulAddDSRowDot), with one exception no value depends on: mulAddSSTN and
// mulAddDSRowDotFlat accumulate in a scratch row where the loops used a
// register, and when two NaNs of different payloads meet in a sum the payload
// that survives follows the operand order the compiler gave the add, which
// differs between the two (and, for the loops themselves, between a plain and
// a -race build). NaN results are NaN in the same cells.

// KernelVersion identifies the arithmetic of the multiply kernels: results
// are bit-identical across kernels, worker counts and transports of one
// version and agree within rounding error across versions. v1: serial tiled
// GEMM; v2: parallel strips; v3: every dense x dense product term is a fused
// multiply-add, every sparse one is multiplied, rounded, then added. No plan
// reads it; benchmark reports record it beside the micro-kernel's name.
const KernelVersion = 3

// MulAddTransInto computes dst += op(a) * op(b), where op(x) is x when the
// corresponding flag is false and the transpose of x when true. dst must be
// an owned dense block of the logical result shape. No transposed block is
// allocated on any path.
func MulAddTransInto(dst *DenseBlock, a, b Block, aT, bT bool) error {
	n, m := transDims(a, aT)
	mb, p := transDims(b, bT)
	if m != mb {
		return fmt.Errorf("%w: %dx%d * %dx%d", ErrShape, n, m, mb, p)
	}
	if dst.Rows() != n || dst.Cols() != p {
		return fmt.Errorf("%w: %dx%d vs %dx%d", ErrShape, dst.Rows(), dst.Cols(), n, p)
	}
	switch at := a.(type) {
	case *DenseBlock:
		switch bt := b.(type) {
		case *DenseBlock:
			mulAddDDTrans(dst, at, bt, aT, bT)
		case *CSCBlock:
			mulAddDS(dst, at, bt, aT, bT)
		default:
			mulAddGenericTrans(dst, a, b, aT, bT)
		}
	case *CSCBlock:
		switch bt := b.(type) {
		case *DenseBlock:
			mulAddSD(dst, at, bt, aT, bT)
		case *CSCBlock:
			mulAddSS(dst, at, bt, aT, bT)
		default:
			mulAddGenericTrans(dst, a, b, aT, bT)
		}
	default:
		mulAddGenericTrans(dst, a, b, aT, bT)
	}
	return nil
}

// Sparse x dense tuning constants.
const (
	// spMinStrip is the fewest result rows (sparse x dense) or columns
	// (dense x sparse) worth a participant of its own; strips are a multiple
	// of eight so that neighbours do not share a cache line of dst.
	spMinStrip = 16
	// spParMin is the multiply-add count (stored non-zeros x lanes) below
	// which one product is not fanned out. With the lanes in registers a
	// second worker first pays around 2M: a 64-lane W^T*V against a
	// 1632-wide block takes the same time at one and two workers at 1.7M
	// (GNMF's 1 %) and a third less from 2.1M up (BenchmarkMulAddGNMFBlocks
	// and a density sweep, 2-vCPU AVX-512 host). V*H^T, whose row view was
	// then built on one worker before the strips started, gained nothing
	// from a second up to 13M.
	spParMin = 1 << 21
	// spScatterParMin is spParMin for the column sweep (mulAddDSScatter),
	// whose axpys load and store their result lanes once an entry: there a
	// second worker pays from 2^18, as before the register gather. On a gnmf
	// block A*V^T runs a quarter faster on two workers at 64 lanes (1.7M;
	// medians 1.8 and 1.35 ms) and a sixth at 16 (0.43M)
	// (BenchmarkMulAddSparseLanes).
	spScatterParMin = 1 << 18
	// dsRowDotMax is the largest row count n of op(A) for which an
	// untransposed dense x CSC product runs as n row-dot passes over the CSC
	// operand instead of packing a transposed A panel for one lane-wide
	// pass: below five lanes an axpy is all call overhead. PageRank's 1 x N
	// rank vector sits on this side — in one of the row-dot's two forms, see
	// dsRowDotFlat — and GNMF's 64 x N factors on the other.
	dsRowDotMax = 4
	// dsRowDotFlat is the average number of stored entries per column of the
	// CSC operand below which a row-dot walks the entries flat (a mark array
	// carries the column boundaries) instead of column by column. It chooses
	// between the two Go forms only, where AVX-512 is missing: with it,
	// rowDotAVX512 takes the groups of eight columns and the column loop the
	// rest. A column loop that runs 0-3 times mispredicts its exit on almost
	// every column and that is then the whole cost; from a few entries a
	// column up it accumulates in a register and skips the flat walk's
	// accumulator row. BenchmarkMulAddDSRowVecHyper (~1.25 entries a column,
	// a block-partitioned graph) and BenchmarkMulAddDSRowVec (10 a column)
	// pin the two sides under DMAC_MATRIX_NOASM=1.
	dsRowDotFlat = 4
	// dsColTile is how many result columns the dense x CSC kernel
	// accumulates before adding them into dst, so that dst is written a
	// cache line per row at a time rather than one strided element.
	dsColTile = 8
	// spPanelBytes bounds the panel of a dense operand a row-view product
	// reads at a time (spPanelRows).
	spPanelBytes = 1 << 19
	// spPanel is how many rows of a transposed dense operand a column sweep
	// packs at a time: the rows are consumed in order, so scratch stays a few
	// hundred KB whatever the block size.
	spPanel = 256
)

// scratchPools holds pooled scratch slices of one element type, one pool per
// power-of-two capacity so that a small request never draws, outgrows and
// drops a large buffer.
type scratchPools[T any] [bits.UintSize]sync.Pool

// get returns a pooled buffer of n elements with unspecified contents; hand
// it back with put.
func (sp *scratchPools[T]) get(n int) *[]T {
	class := bits.Len(uint(max(n, 1) - 1)) // smallest class with 1<<class >= n
	if bp, _ := sp[class].Get().(*[]T); bp != nil {
		*bp = (*bp)[:n]
		return bp
	}
	buf := make([]T, n, 1<<class)
	return &buf
}

func (sp *scratchPools[T]) put(bp *[]T) {
	sp[bits.Len(uint(cap(*bp)))-1].Put(bp)
}

// The sparse kernels' scratch: spScratchPools the float64 buffers they pack
// into and accumulate in (transposed operands, column and row accumulators),
// spIndexPools the int32 ones (column-boundary marks, the CSC builder's
// counters). Steady-state products allocate nothing.
var (
	spScratchPools scratchPools[float64]
	spIndexPools   scratchPools[int32]
)

// spStrips cuts the total result rows or columns of one sparse x dense
// product carrying madds multiply-adds into equal strips, at most one per
// kernel worker, and returns the strip size and count; a count of one means
// the product stays on the caller, as it does below parMin multiply-adds.
func spStrips(total, madds, parMin int) (step, strips int) {
	strips = min(KernelWorkers(), total/spMinStrip)
	if strips < 2 || madds < parMin {
		return total, 1
	}
	step = ((total+strips-1)/strips + 7) &^ 7
	return step, (total + step - 1) / step
}

// axpy computes y[0:len(x)] += alpha * x; y must be at least as long as x.
func axpy(alpha float64, x, y []float64) {
	if cpu.avx && len(x) >= 4 && len(y) >= len(x) {
		axpyAVX(alpha, &x[0], &y[0], len(x))
		return
	}
	axpyGo(alpha, x, y)
}

// axpyGo is the portable axpy; axpyAVX matches it bit for bit.
func axpyGo(alpha float64, x, y []float64) {
	y = y[:len(x)]
	for i, xv := range x {
		y[i] += float64(alpha * xv)
	}
}

// axpyNZ is axpy skipping the lanes where x is zero: the dense x CSC^T
// product has always left a result element untouched when its op(A) factor
// is zero, which is observable (0 * Inf, -0 + 0) and so kept.
func axpyNZ(alpha float64, x, y []float64) {
	y = y[:len(x)]
	for i, xv := range x {
		if xv != 0 {
			y[i] += float64(alpha * xv)
		}
	}
}

// errSparseIndex is what a sparse x dense product panics with when a stored
// index names a row outside the dense operand it reads, whichever kernel and
// feature level runs it.
const errSparseIndex = "matrix: sparse index outside its dense operand"

// gather adds a list of entries into the lane vector y, w = len(y) lanes:
// entry e adds vals[e] * x[rows[e]*w:][:w], in list order, each product
// rounded before it is added — the axpy sequence, which it runs where
// AVX-512 is missing. With fromZero every lane starts at +0 instead of at
// y's contents. On AVX-512 the lanes stay in registers for the whole list
// (gatherAVX512), so y is read at most and written once instead of once an
// entry; each lane sees the same operations in the same order.
func gather(y, x []float64, rows []int32, vals []float64, fromZero bool) {
	w := len(y)
	if len(rows) == 0 || w == 0 {
		if fromZero {
			clear(y)
		}
		return
	}
	vals = vals[:len(rows)]
	if cpu.avx512 {
		if !gatherAVX512(&y[0], &x[0], &rows[0], &vals[0], len(rows), w, len(x)/w, !fromZero) {
			panic(errSparseIndex)
		}
		return
	}
	if fromZero {
		clear(y)
	}
	xrows := uint(len(x) / w)
	for e, r := range rows {
		if uint(r) >= xrows {
			panic(errSparseIndex)
		}
		axpy(vals[e], x[int(r)*w:(int(r)+1)*w], y)
	}
}

// packTrans writes the transpose of the rw x cw window at (r0, c0) of the
// row-major matrix src (leading dimension ld) into buf: buf[c*rw+r] =
// src[(r0+r)*ld+c0+c].
func packTrans(buf, src []float64, ld, r0, rw, c0, cw int) {
	packTransLd(buf, rw, src, ld, r0, rw, c0, cw)
}

// packTransLd is packTrans into a buffer of leading dimension ldb >= rw:
// buf[c*ldb+r] = src[(r0+r)*ld+c0+c]. On AVX-512 the window's whole 8x8
// blocks are transposed in registers (packTransAVX512) and packTransGo
// writes the ragged edges.
func packTransLd(buf []float64, ldb int, src []float64, ld, r0, rw, c0, cw int) {
	if !cpu.avx512 || rw < 8 || cw < 8 {
		packTransGo(buf, ldb, src, ld, r0, rw, c0, cw)
		return
	}
	r8, c8 := rw&^7, cw&^7
	_ = buf[(c8-1)*ldb+r8-1] // the last element the blocks write
	_ = src[(r0+r8-1)*ld+c0+c8-1]
	for r := 0; r < r8; r += 8 {
		packTransAVX512(&buf[r], ldb, &src[(r0+r)*ld+c0], ld, c8/8)
	}
	if c8 < cw {
		packTransGo(buf[c8*ldb:], ldb, src, ld, r0, r8, c0+c8, cw-c8)
	}
	if r8 < rw {
		packTransGo(buf[r8:], ldb, src, ld, r0+r8, rw-r8, c0, cw)
	}
}

// packTransGo is packTransLd in Go and its definition. Eight source rows
// (then four) are read as streams at a time, so the reads are sequential
// whatever ld is and every store fills one whole cache line of buf (half of
// one).
func packTransGo(buf []float64, ldb int, src []float64, ld, r0, rw, c0, cw int) {
	// row returns source row r of the window; re-slicing to cw lets the
	// compiler drop the bounds checks of the column loops.
	row := func(r int) []float64 { return src[(r0+r)*ld+c0:][:cw] }
	r := 0
	for ; r+8 <= rw; r += 8 {
		s0, s1, s2, s3 := row(r), row(r+1), row(r+2), row(r+3)
		s4, s5, s6, s7 := row(r+4), row(r+5), row(r+6), row(r+7)
		for c, o := 0, r; c < cw; c, o = c+1, o+ldb {
			q := (*[8]float64)(buf[o:])
			q[0], q[1], q[2], q[3] = s0[c], s1[c], s2[c], s3[c]
			q[4], q[5], q[6], q[7] = s4[c], s5[c], s6[c], s7[c]
		}
	}
	for ; r+4 <= rw; r += 4 {
		s0, s1, s2, s3 := row(r), row(r+1), row(r+2), row(r+3)
		for c, o := 0, r; c < cw; c, o = c+1, o+ldb {
			q := (*[4]float64)(buf[o:])
			q[0], q[1], q[2], q[3] = s0[c], s1[c], s2[c], s3[c]
		}
	}
	for ; r < rw; r++ {
		for c, v := range row(r) {
			buf[c*ldb+r] = v
		}
	}
}

// unpackTrans is the inverse of packTrans: dst[(r0+r)*ld+c0+c] = buf[c*rw+r].
func unpackTrans(dst, buf []float64, ld, r0, rw, c0, cw int) {
	for r := 0; r < rw; r++ {
		base := (r0+r)*ld + c0
		row := dst[base : base+cw]
		for c := range row {
			row[c] = buf[c*rw+r]
		}
	}
}

// spPanelRows is how many rows of a dense operand, lanes wide, a row-layout
// product packs and reads at a time: spPanelBytes of them, at least eight,
// and all of them if there are fewer. A row of the view reads the rows of
// the dense operand its entries name, anywhere in the panel, so the panel
// has to stay in a core's cache beside dst: a one-block 1777 x 48 018 V*H^T
// at k = 64 took 19 ms in 1 MB panels and 13.5 ms in 512 KB ones (2 MB of
// L2 a core), and read from one 24.6 MB pack it cost the whole one-block
// GNMF a tenth of its kernel GFLOP/s. GNMF's 1632-wide blocks at k = 64
// take two panels, as fast as one.
func spPanelRows(rows, lanes int) int {
	return min(rows, max(8, spPanelBytes/(8*lanes)))
}

// cscRowRange narrows the stored entries [lo, hi) of one CSC column, whose
// row indices ascend, to those with a row index in [r0, r1).
func cscRowRange(rowIdx []int32, lo, hi, r0, r1 int32) (int32, int32) {
	first := func(lo, hi, r int32) int32 {
		for lo < hi {
			mid := lo + (hi-lo)/2
			if rowIdx[mid] < r {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	// A strip at either edge of the block keeps that end of every column:
	// one comparison instead of a search.
	if lo < hi && rowIdx[lo] < r0 {
		lo = first(lo, hi, r0)
	}
	if lo < hi && rowIdx[hi-1] >= r1 {
		hi = first(lo, hi, r1)
	}
	return lo, hi
}

// mulAddSD computes dst += op(A)*op(B) with sparse A (CSC) and dense B:
// dst[i,:] += op(A)[i,k] * op(B)[k,:] in ascending k for each i. Row i of
// op(A) is stored column i of A when aT, and row i of A's row layout
// otherwise; each gathers into dst's row i from the rows of op(B), read
// row-major (a transposed B packed once). The row layout is cut and op(B)
// packed panel by panel of A's columns (spPanelRows), each panel's entries
// of a row following the previous panel's. Strips own disjoint result rows.
func mulAddSD(dst *DenseBlock, a *CSCBlock, b *DenseBlock, aT, bT bool) {
	p := dst.cols
	if len(a.Values) == 0 || p == 0 {
		return
	}
	if aT {
		x := b.Data
		if bT {
			xp := spScratchPools.get(len(b.Data))
			defer spScratchPools.put(xp)
			packTrans(*xp, b.Data, b.cols, 0, p, 0, b.cols)
			x = *xp
		}
		mulAddSDRows(dst, x, a.ColPtr, a.RowIdx, a.Values)
		return
	}
	panel := spPanelRows(a.cols, p)
	rows := a.rowLayout(panel)
	var xp *[]float64
	if bT {
		xp = spScratchPools.get(panel * p)
		defer spScratchPools.put(xp)
	}
	for q, c0 := 0, 0; c0 < a.cols; q, c0 = q+1, c0+panel {
		c1 := min(a.cols, c0+panel)
		if a.ColPtr[c0] == a.ColPtr[c1] {
			continue
		}
		x := b.Data[c0*p : c1*p]
		if bT {
			x = (*xp)[:(c1-c0)*p]
			packTrans(x, b.Data, b.cols, 0, p, c0, c1-c0)
		}
		mulAddSDRows(dst, x, rows.rowPtr(q), rows.col, rows.val)
	}
}

// mulAddSDRows gathers into every row i of dst the entries (idx[e], val[e]),
// e in [ptr[i], ptr[i+1]), from x, which holds rows of op(B) row-major, in
// strips of rows.
func mulAddSDRows(dst *DenseBlock, x []float64, ptr, idx []int32, val []float64) {
	n := dst.rows
	if step, strips := spStrips(n, len(val)*dst.cols, spParMin); strips > 1 {
		parallelStrips(strips, strips, func(s int) {
			mulAddSDStrip(dst, x, ptr, idx, val, s*step, min(n, (s+1)*step))
		})
		return
	}
	mulAddSDStrip(dst, x, ptr, idx, val, 0, n)
}

// mulAddSDStrip is mulAddSDRows for result rows [i0, i1).
func mulAddSDStrip(dst *DenseBlock, x []float64, ptr, idx []int32, val []float64, i0, i1 int) {
	p := dst.cols
	for i := i0; i < i1; i++ {
		lo, hi := ptr[i], ptr[i+1]
		gather(dst.Data[i*p:(i+1)*p], x, idx[lo:hi], val[lo:hi], false)
	}
}

// mulAddDS computes dst += op(A)*op(B) with dense A and sparse B (CSC). Every
// stored non-zero does one axpy over the n result rows, against a contiguous
// row of op(A)^T — A's own rows when aT, a transpose packed otherwise. An
// untransposed B gathers result column j from its stored column j
// (mulAddDSGather); a transposed one scatters stored column k into the
// result columns it names (mulAddDSScatter). Only an untransposed A of at
// most dsRowDotMax rows is too thin for that and takes row-dot passes.
// Strips own disjoint result columns.
func mulAddDS(dst *DenseBlock, a *DenseBlock, b *CSCBlock, aT, bT bool) {
	n, p := dst.rows, dst.cols
	if !aT && !bT && n <= dsRowDotMax {
		mulAddDSRowDot(dst, a, b)
		return
	}
	if n == 0 || (bT && len(b.Values) == 0) {
		return
	}
	if bT {
		if step, strips := spStrips(p, len(b.Values)*n, spScatterParMin); strips > 1 {
			parallelStrips(strips, strips, func(s int) {
				mulAddDSScatter(dst, a, aT, b, s*step, min(p, (s+1)*step))
			})
			return
		}
		mulAddDSScatter(dst, a, aT, b, 0, p)
		return
	}
	// The gather reads rows of op(A)^T in the order of B's row indices, so
	// all of an untransposed A is packed up front and shared by the strips.
	x := a.Data
	if !aT {
		xp := spScratchPools.get(len(a.Data))
		defer spScratchPools.put(xp)
		packTrans(*xp, a.Data, a.cols, 0, n, 0, a.cols)
		x = *xp
	}
	if step, strips := spStrips(p, len(b.Values)*n, spParMin); strips > 1 {
		x := x // captured by reference, the reassigned x would move to the heap on the serial path too
		parallelStrips(strips, strips, func(s int) {
			mulAddDSGather(dst, x, b, s*step, min(p, (s+1)*step))
		})
		return
	}
	mulAddDSGather(dst, x, b, 0, p)
}

// mulAddDSRowDot computes dst += A*B row by row: dst[i,j] gains the dot
// product of dense row i with stored column j of B, one pass over B per row.
// Each dot starts at zero, takes its products in stored order and is added
// into dst once. On AVX-512 the whole groups of eight columns run in
// rowDotAVX512, one column a lane, and the last p%8 in the column loop;
// elsewhere a B of fewer than dsRowDotFlat stored entries per column takes
// the flat form, which does the same without a loop per column. A stored row
// index outside A's row panics on every path.
func mulAddDSRowDot(dst *DenseBlock, a *DenseBlock, b *CSCBlock) {
	p, lda, nnz := dst.cols, a.cols, len(b.Values)
	j0 := 0
	switch {
	case cpu.avx512 && p >= 8 && lda > 0 && nnz > 0:
		j0 = p &^ 7
		_ = b.ColPtr[j0] // the last column bound the groups read
		rowIdx := b.RowIdx[:nnz]
		for i := 0; i < dst.rows; i++ {
			drow := dst.Data[i*p : (i+1)*p]
			arow := a.Data[i*lda : (i+1)*lda]
			if !rowDotAVX512(&drow[0], &arow[0], &b.ColPtr[0], &rowIdx[0], &b.Values[0], j0/8, nnz, lda) {
				panic(errSparseIndex)
			}
		}
	case nnz < dsRowDotFlat*p:
		mulAddDSRowDotFlat(dst, a, b)
		return
	}
	for i := 0; i < dst.rows; i++ {
		drow := dst.Data[i*p : (i+1)*p]
		arow := a.Data[i*lda : (i+1)*lda]
		for j := j0; j < b.cols; j++ {
			s := 0.0
			for idx := b.ColPtr[j]; idx < b.ColPtr[j+1]; idx++ {
				r := uint(b.RowIdx[idx]) // a negative index wraps above len(arow)
				if r >= uint(len(arow)) {
					panic(errSparseIndex)
				}
				s += float64(arow[r] * b.Values[idx])
			}
			drow[j] += s
		}
	}
}

// mulAddDSRowDotFlat is mulAddDSRowDot for a B whose columns hold next to
// nothing: mark[idx] counts the columns that begin at stored entry idx (empty
// ones included), so a running sum of it is the column of each entry and one
// walk over the entries, with no branch per column, accumulates every dot in
// a row that started at zero. Columns that end the block empty land on
// mark[nnz], which is never read. The results are those of the column loop
// bit for bit, except for which payload a sum of two different NaNs keeps (see
// the file comment).
func mulAddDSRowDotFlat(dst *DenseBlock, a *DenseBlock, b *CSCBlock) {
	p, lda, nnz := dst.cols, a.cols, len(b.Values)
	mp := spIndexPools.get(nnz + 1)
	defer spIndexPools.put(mp)
	mark := *mp
	clear(mark)
	for _, start := range b.ColPtr[1:] {
		mark[start]++
	}
	accp := spScratchPools.get(p)
	defer spScratchPools.put(accp)
	acc := *accp
	rowIdx := b.RowIdx[:nnz]
	for i := 0; i < dst.rows; i++ {
		arow := a.Data[i*lda : (i+1)*lda]
		clear(acc)
		j := int32(0)
		for idx, v := range b.Values {
			j += mark[idx]
			r := uint(rowIdx[idx])
			if r >= uint(len(arow)) {
				panic(errSparseIndex)
			}
			acc[j] += float64(arow[r] * v)
		}
		drow := dst.Data[i*p : (i+1)*p]
		for j, s := range acc {
			drow[j] += s
		}
	}
}

// mulAddDSGather is the untransposed-B form of mulAddDS for result columns
// [j0, j1), with x holding op(A)^T row-major (n lanes a row): stored column
// j of B gathers result column j in an accumulator that starts at zero,
// takes B[k,j]*opA[:,k] in ascending k and is added into dst once — the
// operations of a row-dot, lane-parallel.
func mulAddDSGather(dst *DenseBlock, x []float64, b *CSCBlock, j0, j1 int) {
	n, p := dst.rows, dst.cols
	accp := spScratchPools.get(dsColTile * n)
	defer spScratchPools.put(accp)
	acc := *accp
	for c0 := j0; c0 < j1; c0 += dsColTile {
		cw := min(dsColTile, j1-c0)
		for c := 0; c < cw; c++ {
			lo, hi := b.ColPtr[c0+c], b.ColPtr[c0+c+1]
			gather(acc[c*n:(c+1)*n], x, b.RowIdx[lo:hi], b.Values[lo:hi], true)
		}
		addTile(dst.Data[c0:], p, acc, n, cw)
	}
}

// mulAddDSScatter is the bT form of mulAddDS for result columns [j0, j1):
// stored column k of B lists the (j, bv) pairs of row k of op(B) and
// scatters opA[:,k]*bv into the columns of dst it names, skipping zero
// factors of op(A) as the i-k-j loop nest does. The strip's columns of dst
// are transposed into scratch and back so that each is contiguous; rows of
// op(A)^T are needed in order, so an untransposed A is packed spPanel rows
// at a time. (Walking a row view of B instead, as mulAddSD does, made A*V^T
// on a gnmf block 30-160 % slower at every lane count when the view was
// built per product: the axpys still go through memory, and the view cost
// what they do.)
func mulAddDSScatter(dst *DenseBlock, a *DenseBlock, aT bool, b *CSCBlock, j0, j1 int) {
	n, p := dst.rows, dst.cols
	whole := j0 == 0 && j1 == p
	tp := spScratchPools.get((j1 - j0) * n)
	defer spScratchPools.put(tp)
	t := *tp
	packTrans(t, dst.Data, p, 0, n, j0, j1-j0)
	var panel []float64
	if !aT {
		pp := spScratchPools.get(min(spPanel, b.cols) * n)
		defer spScratchPools.put(pp)
		panel = *pp
	}
	for c0 := 0; c0 < b.cols; c0 += spPanel {
		cw := min(spPanel, b.cols-c0)
		if b.ColPtr[c0] == b.ColPtr[c0+cw] {
			continue
		}
		x := panel
		if !aT {
			packTrans(panel, a.Data, a.cols, 0, n, c0, cw)
		} else {
			x = a.Data[c0*n:]
		}
		for c := 0; c < cw; c++ {
			lo, hi := b.ColPtr[c0+c], b.ColPtr[c0+c+1]
			if !whole {
				lo, hi = cscRowRange(b.RowIdx, lo, hi, int32(j0), int32(j1))
			}
			xr := x[c*n : (c+1)*n]
			for idx := lo; idx < hi; idx++ {
				r := int(b.RowIdx[idx]) - j0
				axpyNZ(b.Values[idx], xr, t[r*n:(r+1)*n])
			}
		}
	}
	unpackTrans(dst.Data, t, p, 0, n, j0, j1-j0)
}

// addTile adds the cw accumulated columns of acc (n lanes each, column c at
// acc[c*n:]) into the n x cw window of d (leading dimension ld) they belong
// to: d[i*ld+c] += acc[c*n+i]. On AVX-512 a full tile's rows go through
// addTileAVX512 eight at a time and addTileGo adds the last n%8.
func addTile(d []float64, ld int, acc []float64, n, cw int) {
	i0 := 0
	if cw == dsColTile && n >= 8 && cpu.avx512 {
		i0 = n &^ 7
		_ = d[(i0-1)*ld+dsColTile-1] // the last element the blocks write
		_ = acc[(dsColTile-1)*n+i0-1]
		addTileAVX512(&d[0], ld, &acc[0], n, i0/8)
	}
	addTileGo(d, ld, acc, n, cw, i0)
}

// addTileGo is addTile in Go for rows [i0, n), and its definition.
func addTileGo(d []float64, ld int, acc []float64, n, cw, i0 int) {
	if cw == dsColTile {
		a0 := acc[:n]
		a1, a2, a3 := acc[n:][:n], acc[2*n:][:n], acc[3*n:][:n]
		a4, a5, a6, a7 := acc[4*n:][:n], acc[5*n:][:n], acc[6*n:][:n], acc[7*n:][:n]
		for i := i0; i < n; i++ {
			q := (*[dsColTile]float64)(d[i*ld:])
			q[0] += a0[i]
			q[1] += a1[i]
			q[2] += a2[i]
			q[3] += a3[i]
			q[4] += a4[i]
			q[5] += a5[i]
			q[6] += a6[i]
			q[7] += a7[i]
		}
		return
	}
	for i := i0; i < n; i++ {
		row := d[i*ld : i*ld+cw]
		for c := range row {
			row[c] += acc[c*n+i]
		}
	}
}

// mulAddSS computes dst += op(A)*op(B) with both operands sparse. Each
// transpose combination maps to a different iteration over the CSC storage:
//
//	NN: for every stored B[k,j], scatter column k of A into dst column j.
//	NT: outer products — column k of A times column k of B (CSR row of opB).
//	TN: stored column i of A is logical row i of op(A); chase its (k, av)
//	    entries into row k of B, read from its row layout (mulAddSSTN).
//	TT: stored column i of A is logical row i of op(A); chase its (k, av)
//	    entries into stored column k of B (logical row k of op(B)).
func mulAddSS(dst *DenseBlock, a, b *CSCBlock, aT, bT bool) {
	p := dst.cols
	switch {
	case !aT && !bT:
		for j := 0; j < b.cols; j++ {
			for idx := b.ColPtr[j]; idx < b.ColPtr[j+1]; idx++ {
				k := int(b.RowIdx[idx])
				bv := b.Values[idx]
				for ka := a.ColPtr[k]; ka < a.ColPtr[k+1]; ka++ {
					dst.Data[int(a.RowIdx[ka])*p+j] += float64(a.Values[ka] * bv)
				}
			}
		}
	case !aT && bT:
		for k := 0; k < a.cols; k++ {
			for ka := a.ColPtr[k]; ka < a.ColPtr[k+1]; ka++ {
				i := int(a.RowIdx[ka])
				av := a.Values[ka]
				drow := dst.Data[i*p : (i+1)*p]
				for kb := b.ColPtr[k]; kb < b.ColPtr[k+1]; kb++ {
					drow[b.RowIdx[kb]] += float64(av * b.Values[kb])
				}
			}
		}
	case aT && !bT:
		mulAddSSTN(dst, a, b)
	default: // aT && bT
		for i := 0; i < a.cols; i++ {
			drow := dst.Data[i*p : (i+1)*p]
			for ka := a.ColPtr[i]; ka < a.ColPtr[i+1]; ka++ {
				k := int(a.RowIdx[ka])
				av := a.Values[ka]
				for kb := b.ColPtr[k]; kb < b.ColPtr[k+1]; kb++ {
					drow[b.RowIdx[kb]] += float64(av * b.Values[kb])
				}
			}
		}
	}
}

// mulAddSSTN computes dst += A^T*B for sparse A and B. dst[i,j] is the dot
// product of stored columns A[:,i] and B[:,j] over the rows k both hold; the
// other three forms find those pairs by chasing one operand's entries into a
// stored column of the other, and here that column would be row k of B, which
// CSC does not store. Merging every column pair instead costs cols_a * cols_b
// merges whatever the blocks hold — a thousand per product of two 32-wide
// blocks to perform a few dozen multiply-adds — so B is read by rows, from
// its row layout in one panel (rowLayout), and row i of the result is the
// row-wise product: every stored (k, av) of A[:,i], in ascending k, adds
// av * B[k,:] into an accumulator row that started at zero, and the row is
// added into dst over all its columns — the sums, and the += 0 on cells no
// pair reaches, of the merge kept as refMulAddSS in mul_sparse_test.go (NaN
// payloads aside, see the file comment). A B with no columns leaves dst,
// which then has none either, alone.
func mulAddSSTN(dst *DenseBlock, a, b *CSCBlock) {
	n, p := dst.rows, dst.cols
	if p == 0 {
		return
	}
	rows := b.rowLayout(b.cols)
	ptr, col, val := rows.rowPtr(0), rows.col, rows.val
	accp := spScratchPools.get(p)
	defer spScratchPools.put(accp)
	acc := *accp
	clear(acc)
	for i := 0; i < n; i++ {
		for idx := a.ColPtr[i]; idx < a.ColPtr[i+1]; idx++ {
			k, av := a.RowIdx[idx], a.Values[idx]
			for x := ptr[k]; x < ptr[k+1]; x++ {
				acc[col[x]] += float64(av * val[x])
			}
		}
		drow := dst.Data[i*p : (i+1)*p]
		for j, s := range acc {
			drow[j] += s
			acc[j] = 0
		}
	}
}

// mulAddGenericTrans is the At-based fallback for unknown Block
// implementations; transposition is absorbed by swapping indices.
func mulAddGenericTrans(dst *DenseBlock, a, b Block, aT, bT bool) {
	n, m := transDims(a, aT)
	_, p := transDims(b, bT)
	at := func(i, k int) float64 {
		if aT {
			return a.At(k, i)
		}
		return a.At(i, k)
	}
	bt := func(k, j int) float64 {
		if bT {
			return b.At(j, k)
		}
		return b.At(k, j)
	}
	for i := 0; i < n; i++ {
		for k := 0; k < m; k++ {
			av := at(i, k)
			if av == 0 {
				continue
			}
			for j := 0; j < p; j++ {
				dst.Data[i*p+j] += float64(av * bt(k, j))
			}
		}
	}
}
