package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"sync/atomic"
	"testing"
)

// TestMain lets CI run the package once more with the assembly kernels off
// (DMAC_MATRIX_NOASM=1 go test ./internal/matrix): the override exists only
// in the test binary.
func TestMain(m *testing.M) {
	if os.Getenv("DMAC_MATRIX_NOASM") != "" {
		cpu = cpuFeatures{}
		gemmKern = gemmKernelsFor(cpu)[0]
	}
	os.Exit(m.Run())
}

// refMulAddSD is the sparse x dense kernel as it stood before the one-pass
// rewrite, kept as the bit-for-bit reference of mulAddSD.
func refMulAddSD(dst *DenseBlock, a *CSCBlock, b *DenseBlock, aT, bT bool) {
	p := dst.cols
	ldb := b.cols
	if aT {
		// op(A)[i,k] = A[k,i]: enumerate stored column i; entries are (k, av).
		for i := 0; i < a.cols; i++ {
			drow := dst.Data[i*p : (i+1)*p]
			for idx := a.ColPtr[i]; idx < a.ColPtr[i+1]; idx++ {
				k := int(a.RowIdx[idx])
				av := a.Values[idx]
				if bT {
					for j := 0; j < p; j++ {
						drow[j] += float64(av * b.Data[j*ldb+k])
					}
				} else {
					brow := b.Data[k*ldb : k*ldb+p]
					for j, bv := range brow {
						drow[j] += float64(av * bv)
					}
				}
			}
		}
		return
	}
	for k := 0; k < a.cols; k++ {
		for idx := a.ColPtr[k]; idx < a.ColPtr[k+1]; idx++ {
			i := int(a.RowIdx[idx])
			av := a.Values[idx]
			drow := dst.Data[i*p : (i+1)*p]
			if bT {
				for j := 0; j < p; j++ {
					drow[j] += float64(av * b.Data[j*ldb+k])
				}
			} else {
				brow := b.Data[k*ldb : k*ldb+p]
				for j, bv := range brow {
					drow[j] += float64(av * bv)
				}
			}
		}
	}
}

// refMulAddDS is the dense x sparse kernel as it stood before the one-pass
// rewrite, kept as the bit-for-bit reference of mulAddDS.
func refMulAddDS(dst *DenseBlock, a *DenseBlock, b *CSCBlock, aT, bT bool) {
	n := dst.rows
	p := dst.cols
	lda := a.cols
	if bT {
		// op(B)[k,j] = B[j,k]: stored column k of B holds row k of op(B).
		for i := 0; i < n; i++ {
			drow := dst.Data[i*p : (i+1)*p]
			for k := 0; k < b.cols; k++ {
				var av float64
				if aT {
					av = a.Data[k*lda+i]
				} else {
					av = a.Data[i*lda+k]
				}
				if av == 0 {
					continue
				}
				for idx := b.ColPtr[k]; idx < b.ColPtr[k+1]; idx++ {
					drow[b.RowIdx[idx]] += float64(av * b.Values[idx])
				}
			}
		}
		return
	}
	if !aT {
		refMulAddDSRowDot(dst, a, b)
		return
	}
	for i := 0; i < n; i++ {
		drow := dst.Data[i*p : (i+1)*p]
		for j := 0; j < b.cols; j++ {
			s := 0.0
			for idx := b.ColPtr[j]; idx < b.ColPtr[j+1]; idx++ {
				s += float64(a.Data[int(b.RowIdx[idx])*lda+i] * b.Values[idx])
			}
			drow[j] += s
		}
	}
}

// refMulAddDSRowDot is the row-vector x CSC kernel as it stood before the
// flat walk, one register-accumulated dot per column whatever the column
// holds, kept as the bit-for-bit reference of both forms of mulAddDSRowDot.
func refMulAddDSRowDot(dst *DenseBlock, a *DenseBlock, b *CSCBlock) {
	p, lda := dst.cols, a.cols
	for i := 0; i < dst.rows; i++ {
		drow := dst.Data[i*p : (i+1)*p]
		arow := a.Data[i*lda : (i+1)*lda]
		for j := 0; j < b.cols; j++ {
			s := 0.0
			for idx := b.ColPtr[j]; idx < b.ColPtr[j+1]; idx++ {
				s += float64(arow[b.RowIdx[idx]] * b.Values[idx])
			}
			drow[j] += s
		}
	}
}

// refMulAddSS is the sparse x sparse kernel as it stood before the row-wise
// TN form: NN, NT and TT are the loops mulAddSS still runs, TN is the
// merge-dot of every column pair. Kept as the bit-for-bit reference.
func refMulAddSS(dst *DenseBlock, a, b *CSCBlock, aT, bT bool) {
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
		for i := 0; i < a.cols; i++ {
			drow := dst.Data[i*p : (i+1)*p]
			for j := 0; j < b.cols; j++ {
				ka, kb := a.ColPtr[i], b.ColPtr[j]
				ea, eb := a.ColPtr[i+1], b.ColPtr[j+1]
				s := 0.0
				for ka < ea && kb < eb {
					ra, rb := a.RowIdx[ka], b.RowIdx[kb]
					switch {
					case ra == rb:
						s += float64(a.Values[ka] * b.Values[kb])
						ka++
						kb++
					case ra < rb:
						ka++
					default:
						kb++
					}
				}
				drow[j] += s
			}
		}
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

// sparseWithGaps is randSparse with every third stored column left empty.
func sparseWithGaps(rng *rand.Rand, rows, cols int, density float64) *CSCBlock {
	var coords []Coord
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if j%3 != 1 && rng.Float64() < density {
				coords = append(coords, Coord{Row: i, Col: j, Val: rng.NormFloat64()})
			}
		}
	}
	return NewCSC(rows, cols, coords)
}

// spOperands builds op-shaped operands for an n x m times m x p product with
// the sparse one on the given side. special plants zeros and negative zeros
// in the dense operand and an infinity in the sparse one, the values on which
// a skipped or reordered operation would show.
func spOperands(rng *rand.Rand, sparseLeft bool, n, m, p int, aT, bT bool, density float64, special bool) (a, b Block) {
	ar, ac := n, m
	if aT {
		ar, ac = m, n
	}
	br, bc := m, p
	if bT {
		br, bc = p, m
	}
	dense := func(r, c int) *DenseBlock {
		d := randDense(rng, r, c)
		if special {
			for i := range d.Data {
				switch rng.Intn(6) {
				case 0:
					d.Data[i] = 0
				case 1:
					d.Data[i] = math.Copysign(0, -1)
				}
			}
		}
		return d
	}
	sparse := func(r, c int) *CSCBlock {
		s := sparseWithGaps(rng, r, c, density)
		if special && len(s.Values) > 0 {
			s.Values[rng.Intn(len(s.Values))] = math.Inf(1)
			s.Values[rng.Intn(len(s.Values))] = 0
		}
		return s
	}
	if sparseLeft {
		return sparse(ar, ac), dense(br, bc)
	}
	return dense(ar, ac), sparse(br, bc)
}

func sameBits(x, y []float64) int {
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return i
		}
	}
	return -1
}

// featureLevels lists the CPU feature sets a test forces in turn so that
// every fallback of the sparse and cell-wise kernels runs: none (the Go
// loops), AVX alone (axpyAVX under the Go gather and transposes) and, on
// top, AVX-512 (the register gather and transposes, the cell-wise vector
// loops), each only where the host has it.
func featureLevels() []cpuFeatures {
	levels := []cpuFeatures{{}}
	if cpu.avx {
		levels = append(levels, cpuFeatures{avx: true, fma: cpu.fma})
	}
	if cpu.avx512 {
		levels = append(levels, cpu)
	}
	return levels
}

// spFanOut returns how many strips MulAddTransInto cuts a sparse x dense
// product into at the current kernel worker count, with nnz stored entries in
// its sparse operand, and whether its kernel sweeps the stored columns
// (spScatterParMin) rather than gathering (spParMin).
func spFanOut(sparseLeft, aT, bT bool, n, p, nnz int) (strips int, sweep bool) {
	total, lanes := n, p
	if !sparseLeft {
		total, lanes = p, n
	}
	sweep = !sparseLeft && bT
	parMin := spParMin
	if sweep {
		parMin = spScatterParMin
	}
	_, strips = spStrips(total, nnz*lanes, parMin)
	return strips, sweep
}

// TestSparseDenseBitIdentical holds the one-pass sparse x dense kernels to
// the loops they replaced, bit for bit: every operand order, transpose flag,
// thin and ragged shape, empty columns and blocks, a non-zero dst on entry,
// every feature level (featureLevels), and worker counts that cut the lanes
// into one to seven strips. Every product that clears its kernel's fan-out
// threshold (spFanOut) runs at all those worker counts: among them the
// column sweep's of the 200-deep shapes, and the gathers' of the last two
// shapes, with GNMF's W^T*V at 64 lanes and V*H^T at 32.
func TestSparseDenseBitIdentical(t *testing.T) {
	defer SetKernelWorkers(SetKernelWorkers(1))
	defer func(f cpuFeatures) { cpu = f }(cpu)
	levels := featureLevels()
	shapes := [][3]int{
		{1, 7, 6}, {2, 7, 37}, {3, 33, 5}, {5, 7, 1}, {4, 9, 4},
		{1, 200, 150}, {2, 200, 65}, {3, 200, 150}, {5, 200, 37},
		{64, 200, 150}, {65, 200, 150}, {150, 200, 64}, {150, 200, 65},
		{64, 33, 6}, {37, 200, 70}, {150, 7, 150},
		{2000, 300, 3},
		{64, 256, 656}, {1300, 256, 32},
	}
	type variant struct {
		density float64
		special bool
	}
	variants := []variant{{0.3, false}, {0.3, true}, {0, false}}
	rng := rand.New(rand.NewSource(14))
	// The most strips a product was cut into, by sparse side and kernel kind.
	fanned := map[[2]bool]int{}
	defer func() {
		// A sparse left operand is always gathered.
		for _, kind := range [][2]bool{{true, false}, {false, true}, {false, false}} {
			if k := fanned[kind]; k < 4 {
				t.Errorf("sparseLeft=%v sweep=%v: the table cut a product into at most %d strips; up to four went untested", kind[0], kind[1], k)
			}
		}
	}()
	for _, sh := range shapes {
		n, m, p := sh[0], sh[1], sh[2]
		for _, sparseLeft := range []bool{true, false} {
			for flags := 0; flags < 4; flags++ {
				aT, bT := flags&1 != 0, flags&2 != 0
				for _, v := range variants {
					a, b := spOperands(rng, sparseLeft, n, m, p, aT, bT, v.density, v.special)
					entry := randDense(rng, n, p)
					if v.special {
						entry.Data[rng.Intn(len(entry.Data))] = math.Copysign(0, -1)
						entry.Data[rng.Intn(len(entry.Data))] = 0
					}
					ws := []int{1}
					SetKernelWorkers(7)
					nnz := a.NNZ()
					if !sparseLeft {
						nnz = b.NNZ()
					}
					if sparseLeft || !(n <= dsRowDotMax && !aT && !bT) {
						strips, sweep := spFanOut(sparseLeft, aT, bT, n, p, nnz)
						key := [2]bool{sparseLeft, sweep}
						fanned[key] = max(fanned[key], strips)
						if strips > 1 {
							ws = []int{1, 2, 3, 4, 7}
						}
					}
					want := entry.Clone().(*DenseBlock)
					if sparseLeft {
						refMulAddSD(want, a.(*CSCBlock), b.(*DenseBlock), aT, bT)
					} else {
						refMulAddDS(want, a.(*DenseBlock), b.(*CSCBlock), aT, bT)
					}
					for _, f := range levels {
						cpu = f
						for _, workers := range ws {
							SetKernelWorkers(workers)
							got := entry.Clone().(*DenseBlock)
							if err := MulAddTransInto(got, a, b, aT, bT); err != nil {
								t.Fatal(err)
							}
							if i := sameBits(got.Data, want.Data); i >= 0 {
								t.Fatalf("%dx%dx%d sparseLeft=%v aT=%v bT=%v density=%v special=%v cpu=%+v workers=%d: element %d is %v, reference %v",
									n, m, p, sparseLeft, aT, bT, v.density, v.special, f, workers, i, got.Data[i], want.Data[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestSparseDenseLanesBitIdentical holds the register gather, the row views
// and the vector transposes to the reference loops, bit for bit, at every
// lane count from 1 to 130: both sides of the 8-, 32- and 64-lane register
// passes and every masked tail of one to seven lanes. The lanes are the
// result's columns in the four sparse x dense forms and its rows in the four
// dense x sparse ones (A*S from five rows up; below, the row-dot runs). At
// GNMF's 32 and 64 lanes and at 130 the inner dimension also runs two and a
// half row-view panels deep (spPanelRows). The operands and dst on entry
// carry zeros of both signs, infinities, subnormals and the default NaN
// (see hyperSparse), and every feature level runs (featureLevels).
func TestSparseDenseLanesBitIdentical(t *testing.T) {
	defer SetKernelWorkers(SetKernelWorkers(1))
	defer func(f cpuFeatures) { cpu = f }(cpu)
	levels := featureLevels()
	rng := rand.New(rand.NewSource(19))
	plant := func(vals []float64) {
		for _, v := range []float64{0, math.Copysign(0, -1), posInf, -posInf, posInf - posInf, math.SmallestNonzeroFloat64, -0x1p-1030} {
			if len(vals) > 0 {
				vals[rng.Intn(len(vals))] = v
			}
		}
	}
	const other = 11   // the result's other side
	var cases [][2]int // lanes, inner dimension
	for lanes := 1; lanes <= 130; lanes++ {
		cases = append(cases, [2]int{lanes, 29})
	}
	for _, lanes := range []int{32, 64, 130} {
		cases = append(cases, [2]int{lanes, 2*spPanelRows(1<<30, lanes) + 5})
	}
	for _, c := range cases {
		lanes, depth := c[0], c[1]
		for _, sparseLeft := range []bool{true, false} {
			n, p := other, lanes
			if !sparseLeft {
				n, p = lanes, other
			}
			for flags := 0; flags < 4; flags++ {
				aT, bT := flags&1 != 0, flags&2 != 0
				a, b := spOperands(rng, sparseLeft, n, depth, p, aT, bT, 0.3, true)
				entry := dstOnEntry(rng, n, p)
				plant(entry.Data)
				want := entry.Clone().(*DenseBlock)
				if sparseLeft {
					plant(a.(*CSCBlock).Values)
					plant(b.(*DenseBlock).Data)
					refMulAddSD(want, a.(*CSCBlock), b.(*DenseBlock), aT, bT)
				} else {
					plant(a.(*DenseBlock).Data)
					plant(b.(*CSCBlock).Values)
					refMulAddDS(want, a.(*DenseBlock), b.(*CSCBlock), aT, bT)
				}
				for _, f := range levels {
					cpu = f
					got := entry.Clone().(*DenseBlock)
					if err := MulAddTransInto(got, a, b, aT, bT); err != nil {
						t.Fatal(err)
					}
					if i := sameBits(got.Data, want.Data); i >= 0 {
						t.Fatalf("%d lanes %dx%dx%d sparseLeft=%v aT=%v bT=%v cpu=%+v: element %d is %v, reference %v",
							lanes, n, depth, p, sparseLeft, aT, bT, f, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// TestSparseDenseConcurrentCallers drives the lane strips of both kernels
// from several goroutines at once, as the executor's block tasks do; under
// -race it pins the pooled scratch, the shared packed operands and row
// layouts and the strip ownership as race-free. Every product is cut into
// strips: all eight forms at 64 x 656, and the thin gather of V*w at three
// lanes.
func TestSparseDenseConcurrentCallers(t *testing.T) {
	defer SetKernelWorkers(SetKernelWorkers(4))
	rng := rand.New(rand.NewSource(15))
	type product struct {
		a, b   Block
		aT, bT bool
		want   *DenseBlock
	}
	var products []product
	add := func(sparseLeft, aT, bT bool, n, m, p int) {
		a, b := spOperands(rng, sparseLeft, n, m, p, aT, bT, 0.3, false)
		want := NewDense(n, p)
		nnz := a.NNZ()
		if sparseLeft {
			refMulAddSD(want, a.(*CSCBlock), b.(*DenseBlock), aT, bT)
		} else {
			nnz = b.NNZ()
			refMulAddDS(want, a.(*DenseBlock), b.(*CSCBlock), aT, bT)
		}
		if strips, _ := spFanOut(sparseLeft, aT, bT, n, p, nnz); strips < 2 {
			t.Fatalf("%dx%dx%d aT=%v bT=%v sparseLeft=%v: %d stored entries run in one strip", n, m, p, aT, bT, sparseLeft, nnz)
		}
		products = append(products, product{a, b, aT, bT, want})
	}
	for flags := 0; flags < 4; flags++ {
		aT, bT := flags&1 != 0, flags&2 != 0
		for _, sparseLeft := range []bool{true, false} {
			add(sparseLeft, aT, bT, 64, 256, 656)
		}
	}
	for _, bT := range []bool{false, true} {
		add(true, false, bT, 2000, 1800, 3)
	}
	const callers = 8
	errs := make(chan string, callers)
	for g := 0; g < callers; g++ {
		go func(g int) {
			for r := 0; r < len(products); r++ {
				pr := products[(g+r)%len(products)]
				got := NewDense(pr.want.rows, pr.want.cols)
				if err := MulAddTransInto(got, pr.a, pr.b, pr.aT, pr.bT); err != nil {
					errs <- err.Error()
					return
				}
				if i := sameBits(got.Data, pr.want.Data); i >= 0 {
					errs <- fmt.Sprintf("aT=%v bT=%v: element %d differs under concurrent callers", pr.aT, pr.bT, i)
					return
				}
			}
			errs <- ""
		}(g)
	}
	for g := 0; g < callers; g++ {
		if msg := <-errs; msg != "" {
			t.Error(msg)
		}
	}
}

// TestSparseDenseAllocFree verifies that steady-state sparse x dense products
// allocate nothing on the caller's own strip: packed operands, the transposed
// dst and the column accumulators all come from the scratch pools, and the
// row layout the first product built is the block's own, on the register
// gather's passes (64, 32, 8 lanes and a masked tail) as on its fallback, at
// two lanes as at 64, and on the column sweep. (A fanned-out product
// additionally allocates its strip job, like the GEMM's.)
func TestSparseDenseAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer SetKernelWorkers(SetKernelWorkers(1))
	defer func(f cpuFeatures) { cpu = f }(cpu)
	levels := featureLevels()
	rng := rand.New(rand.NewSource(16))
	for _, sh := range [][3]int{{64, 300, 300}, {1, 300, 300}, {300, 300, 64}, {32, 300, 45}, {300, 300, 32}, {300, 300, 2}} {
		n, m, p := sh[0], sh[1], sh[2]
		for _, sparseLeft := range []bool{true, false} {
			for flags := 0; flags < 4; flags++ {
				aT, bT := flags&1 != 0, flags&2 != 0
				a, b := spOperands(rng, sparseLeft, n, m, p, aT, bT, 0.05, false)
				dst := NewDense(n, p)
				run := func() {
					if err := MulAddTransInto(dst, a, b, aT, bT); err != nil {
						t.Fatal(err)
					}
				}
				for _, f := range levels {
					cpu = f
					run() // grow the pooled scratch
					if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
						t.Errorf("%dx%dx%d sparseLeft=%v aT=%v bT=%v cpu=%+v: %v allocs per product, want 0", n, m, p, sparseLeft, aT, bT, f, allocs)
					}
				}
			}
		}
	}
}

// TestRowLayoutBuiltOnce makes the first product on one cold block from eight
// goroutines at once: the block's row layout is built once, and every result
// is the reference loops' to the bit. Under -race it pins the layout's
// publication to the readers that did not build it.
func TestRowLayoutBuiltOnce(t *testing.T) {
	defer SetKernelWorkers(SetKernelWorkers(2))
	rng := rand.New(rand.NewSource(20))
	const n, m, p = 300, 200, 16
	a, b := spOperands(rng, true, n, m, p, false, true, 0.1, true)
	want := NewDense(n, p)
	refMulAddSD(want, a.(*CSCBlock), b.(*DenseBlock), false, true)
	var builds atomic.Int64
	testRowLayoutBuilt = func() { builds.Add(1) }
	defer func() { testRowLayoutBuilt = nil }()
	const callers = 8
	start := make(chan struct{})
	errs := make(chan string, callers)
	for g := 0; g < callers; g++ {
		go func() {
			<-start
			got := NewDense(n, p)
			if err := MulAddTransInto(got, a, b, false, true); err != nil {
				errs <- err.Error()
				return
			}
			if i := sameBits(got.Data, want.Data); i >= 0 {
				errs <- fmt.Sprintf("element %d is %v, reference %v", i, got.Data[i], want.Data[i])
				return
			}
			errs <- ""
		}()
	}
	close(start)
	for g := 0; g < callers; g++ {
		if msg := <-errs; msg != "" {
			t.Error(msg)
		}
	}
	if k := builds.Load(); k != 1 {
		t.Errorf("%d callers built the row layout %d times, want once", callers, k)
	}
}

// TestRowLayoutFollowsWidth multiplies one block, untransposed on the left,
// at 64 lanes, then 3, then 64 again: every product is the reference's to the
// bit, and the block keeps one layout, in panels of the width its last
// product asked for (three panels at 64 lanes, one at 3).
func TestRowLayoutFollowsWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n, m = 40, 2*1024 + 5
	a := sparseWithGaps(rng, n, m, 0.05)
	for _, lanes := range []int{64, 3, 64} {
		b := randDense(rng, m, lanes)
		got := dstOnEntry(rng, n, lanes)
		want := got.Clone().(*DenseBlock)
		refMulAddSD(want, a, b, false, false)
		if err := MulAddTransInto(got, a, b, false, false); err != nil {
			t.Fatal(err)
		}
		if i := sameBits(got.Data, want.Data); i >= 0 {
			t.Fatalf("%d lanes: element %d is %v, reference %v", lanes, i, got.Data[i], want.Data[i])
		}
		if l := a.byRow.Load(); l == nil || l.panel != spPanelRows(m, lanes) {
			t.Fatalf("%d lanes: layout %+v, want panels of %d columns", lanes, l, spPanelRows(m, lanes))
		}
	}
}

// TestRowLayoutNotInherited: a block made from one that has a row layout —
// by Clone, Transpose, Scale or a sparse Scalar — starts without one.
func TestRowLayoutNotInherited(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	s := randSparse(rng, 30, 20, 0.3)
	if s.rowLayout(s.cols) == nil || s.byRow.Load() == nil {
		t.Fatal("no row layout kept")
	}
	for name, d := range map[string]Block{
		"Clone": s.Clone(), "Transpose": s.Transpose(), "Scale": s.Scale(2), "Scalar": Scalar(ScalarMul, s, 2),
	} {
		if d.(*CSCBlock).byRow.Load() != nil {
			t.Errorf("%s carries its source's row layout", name)
		}
	}
}

// posInf is a variable so that posInf - posInf is computed when the test runs
// and yields the NaN the hardware makes of an invalid operation.
var posInf = math.Inf(1)

// hyperSparse returns a rows x cols CSC block with about perCol stored entries
// in each column but every third, which stays empty, and — when special —
// zeros and infinities of both signs and a NaN among its values. The NaN is
// the hardware's default one, the same that Inf*0 and Inf-Inf produce inside a
// kernel, so every NaN in play has one bit pattern: which payload the sum of
// two different NaNs keeps follows the operand order the compiler picked for
// the add, and the kernels that accumulate in a scratch row are not held to
// their references on that. hyperSparse costs O(entries), not O(cells), so
// that the wide shapes stay cheap under -race.
func hyperSparse(rng *rand.Rand, rows, cols int, perCol float64, special bool) *CSCBlock {
	var coords []Coord
	for j := 0; j < cols && rows > 0; j++ {
		if j%3 == 1 {
			continue
		}
		k := int(perCol)
		if rng.Float64() < perCol-float64(k) {
			k++
		}
		for ; k > 0; k-- {
			coords = append(coords, Coord{Row: rng.Intn(rows), Col: j, Val: rng.NormFloat64()})
		}
	}
	s := NewCSC(rows, cols, coords)
	if special {
		for _, v := range []float64{0, math.Copysign(0, -1), posInf, -posInf, posInf - posInf} {
			if len(s.Values) > 0 {
				s.Values[rng.Intn(len(s.Values))] = v
			}
		}
	}
	return s
}

// dstOnEntry returns a random n x p result block with zeros of both signs
// planted in it: the cells on which a skipped "+= 0" would show.
func dstOnEntry(rng *rand.Rand, n, p int) *DenseBlock {
	d := randDense(rng, n, p)
	for i := range d.Data {
		switch rng.Intn(5) {
		case 0:
			d.Data[i] = 0
		case 1:
			d.Data[i] = math.Copysign(0, -1)
		}
	}
	return d
}

// TestSparseSparseBitIdentical holds mulAddSS to the loops kept as
// refMulAddSS, bit for bit, in all four transpose forms: block widths around
// the server's 32 and the paper workloads' 145 and 1632, ragged edge blocks,
// empty columns, an all-empty operand, one block as both operands, from under
// one stored entry a column to 30 % of the cells, zeros of both signs in dst
// on entry and signed zeros, infinities and NaNs among the stored values.
func TestSparseSparseBitIdentical(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1}, {2, 3, 2}, {1, 40, 33}, {31, 32, 31}, {32, 32, 32}, {33, 32, 31},
		{32, 17, 32}, {17, 32, 9}, {145, 60, 145}, {145, 145, 145}, {32, 1632, 32},
		{1632, 48, 32}, {32, 48, 1632},
	}
	// Stored entries per column; from 1 up, a share of the cells in percent.
	fills := []float64{0, 0.7, 5, 30}
	rng := rand.New(rand.NewSource(15))
	for _, sh := range shapes {
		n, m, p := sh[0], sh[1], sh[2]
		for flags := 0; flags < 4; flags++ {
			aT, bT := flags&1 != 0, flags&2 != 0
			ar, ac, br, bc := n, m, m, p
			if aT {
				ar, ac = m, n
			}
			if bT {
				br, bc = p, m
			}
			for _, fill := range fills {
				for _, special := range []bool{false, true} {
					perCol := func(rows int) float64 {
						if fill >= 1 {
							return fill / 100 * float64(rows)
						}
						return fill
					}
					a := hyperSparse(rng, ar, ac, perCol(ar), special)
					operands := [][2]*CSCBlock{
						{a, hyperSparse(rng, br, bc, perCol(br), special)},
						{a, NewCSCEmpty(br, bc)},
					}
					if ar == br && ac == bc {
						operands = append(operands, [2]*CSCBlock{a, a})
					}
					for _, op := range operands {
						entry := dstOnEntry(rng, n, p)
						want := entry.Clone().(*DenseBlock)
						refMulAddSS(want, op[0], op[1], aT, bT)
						if err := MulAddTransInto(entry, op[0], op[1], aT, bT); err != nil {
							t.Fatal(err)
						}
						if i := sameBits(entry.Data, want.Data); i >= 0 {
							t.Fatalf("%dx%dx%d aT=%v bT=%v fill=%v special=%v self=%v nnz=%d,%d: element %d is %v, reference %v",
								n, m, p, aT, bT, fill, special, op[0] == op[1], op[0].NNZ(), op[1].NNZ(), i, entry.Data[i], want.Data[i])
						}
					}
				}
			}
		}
	}
}

// TestRowVecBitIdentical holds mulAddDSRowDot to the column loop kept as
// refMulAddDSRowDot, bit for bit, at every feature level (featureLevels): the
// AVX-512 lane kernel (rowDotAVX512, its short-window and long-window paths)
// with the column loop on the last p%8 columns, and, without AVX-512, the two
// Go forms either side of the dsRowDotFlat crossover. Every row count that
// takes the row-dot path runs: random blocks from empty to 30 % of the
// cells; one group of eight columns whose window holds 0, 1, 8, 9, 15, 16,
// 17 or 40 entries, in one column, spread evenly or at random; one short
// window whose longest column is rowDotFixedSteps (the short path's fixed
// steps alone) or one more (the loop after them); widths 1-17 and 1023-1025.
// The table fails if any of these boundaries went unrun. Entries sit at rows
// 0 and m-1, the vector and the stored values carry zeros of both signs,
// infinities and NaN, and dst zeros of both signs (dstOnEntry).
func TestRowVecBitIdentical(t *testing.T) {
	host := cpu
	defer func() { cpu = host }()
	levels := featureLevels()
	rng := rand.New(rand.NewSource(16))
	var flat, byColumn, short, long bool
	var seen rowVecBounds
	check := func(name string, a *DenseBlock, b *CSCBlock) {
		t.Helper()
		seen.add(b)
		entry := dstOnEntry(rng, a.rows, b.cols)
		want := entry.Clone().(*DenseBlock)
		refMulAddDSRowDot(want, a, b)
		for _, lv := range levels {
			cpu = lv
			got := entry.Clone().(*DenseBlock)
			if err := MulAddTransInto(got, a, b, false, false); err != nil {
				t.Fatal(err)
			}
			if i := sameBits(got.Data, want.Data); i >= 0 {
				t.Fatalf("%s %dx%dx%d nnz=%d level %+v: element %d is %v, reference %v",
					name, a.rows, a.cols, b.cols, b.NNZ(), lv, i, got.Data[i], want.Data[i])
			}
			switch {
			case lv.avx512:
				s, l := rowVecWindows(b)
				short, long = short || s, long || l
			case b.NNZ() >= dsRowDotFlat*b.cols:
				byColumn = true
			default:
				flat = true
			}
		}
	}
	for n := 1; n <= dsRowDotMax; n++ {
		for _, sh := range [][2]int{{1, 1}, {5, 2}, {40, 31}, {32, 32}, {32, 33}, {200, 145}, {1632, 1632}, {7, 300}} {
			m, p := sh[0], sh[1]
			for _, perCol := range []float64{0, 0.7, 1.25, dsRowDotFlat - 0.5, dsRowDotFlat + 0.5, 10, 0.3 * float64(m)} {
				for _, special := range []bool{false, true} {
					check(fmt.Sprintf("perCol=%v special=%v", perCol, special),
						rowVecDense(rng, n, m, special), hyperSparse(rng, m, p, perCol, special))
				}
			}
		}
		// One group of eight between two others and a 3-column tail.
		const m = 64
		for _, window := range []int{0, 1, 8, 9, 15, 16, 17, 40} {
			for spread := 0; spread < 3; spread++ {
				lens := make([]int, 8*3+3)
				for j := range lens {
					lens[j] = rng.Intn(3)
				}
				group := lens[8:16]
				clear(group)
				for e := 0; e < window; e++ {
					switch spread {
					case 0:
						group[5]++
					case 1:
						group[e%8]++
					default:
						group[rng.Intn(8)]++
					}
				}
				for _, special := range []bool{false, true} {
					check(fmt.Sprintf("window=%d spread=%d special=%v", window, spread, special),
						rowVecDense(rng, n, m, special), rowVecBlock(rng, m, lens, special))
				}
			}
		}
		for _, longest := range []int{rowDotFixedSteps, rowDotFixedSteps + 1} {
			for rep := 0; rep < 3; rep++ {
				lens := make([]int, 8*3+3)
				for j := range lens {
					lens[j] = rng.Intn(3)
				}
				group := lens[8:16]
				top := rng.Intn(8)
				window := longest
				for c := range group {
					if c != top {
						group[c] = min(rng.Intn(longest), 16-window)
						window += group[c]
					}
				}
				group[top] = longest
				for _, special := range []bool{false, true} {
					check(fmt.Sprintf("longest=%d window=%d special=%v", longest, window, special),
						rowVecDense(rng, n, m, special), rowVecBlock(rng, m, lens, special))
				}
			}
		}
		for _, p := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 1023, 1024, 1025} {
			lens := make([]int, p)
			for j := range lens {
				if lens[j] = rng.Intn(4); rng.Intn(16) == 0 {
					lens[j] = rng.Intn(m)
				}
			}
			for _, special := range []bool{false, true} {
				check(fmt.Sprintf("p=%d special=%v", p, special),
					rowVecDense(rng, n, m, special), rowVecBlock(rng, m, lens, special))
			}
		}
	}
	if !flat || !byColumn {
		t.Errorf("the table ran flat=%v byColumn=%v: a Go form of the row-dot went untested", flat, byColumn)
	}
	if host.avx512 && (!short || !long) {
		t.Errorf("the table ran short=%v long=%v windows: a path of rowDotAVX512 went untested", short, long)
	}
	if seen != (rowVecBounds{true, true, true, true}) {
		t.Errorf("the table ran the short path's boundaries %+v: one of rowDotAVX512's went untested", seen)
	}
}

// TestSparseIndexOutsideDenseOperand builds CSC blocks directly with one
// stored row index outside the dense operand it addresses — just past it,
// far past it, negative — and runs every path that reads a dense operand by
// stored index at every feature level: the row-vector product (AVX-512
// short and long windows, the column-loop tail, the Go flat and column
// forms), the lane-wide gather of a dense x CSC product with A plain and
// transposed, and the gather of a transposed CSC x dense one with B plain and
// transposed. Each must panic with errSparseIndex rather than read past the
// operand or return; a valid product run after each must still match its
// reference bit for bit, so nothing the panic cut short is left behind in
// the pooled scratch.
func TestSparseIndexOutsideDenseOperand(t *testing.T) {
	defer func(f cpuFeatures) { cpu = f }(cpu)
	rng := rand.New(rand.NewSource(18))
	const m = 40
	cases := []struct {
		name    string
		n, p    int // result rows and columns
		lens    func(j int) int
		bad     int // the stored entry whose row index goes bad
		sparseA bool
		aT, bT  bool
	}{
		{name: "rowvec short window", n: 1, p: 24, lens: func(j int) int { return 1 + j%2 }, bad: 20},
		{name: "rowvec long window", n: 2, p: 24, lens: func(j int) int { return 3 + j%2 }, bad: 45},
		{name: "rowvec first entry", n: 1, p: 16, lens: func(j int) int { return j % 3 }, bad: 0},
		{name: "rowvec tail", n: 3, p: 19, lens: func(j int) int { return 1 }, bad: 18},
		{name: "rowvec flat", n: 4, p: 6, lens: func(j int) int { return j % 2 }, bad: 2},
		{name: "rowvec columns", n: 1, p: 5, lens: func(j int) int { return 6 }, bad: 29},
		{name: "lanes A", n: 8, p: 12, lens: func(j int) int { return 2 }, bad: 11},
		{name: "lanes At", n: 9, p: 12, lens: func(j int) int { return 2 }, bad: 23, aT: true},
		{name: "sparse At B", n: 12, p: 8, lens: func(j int) int { return 2 }, bad: 5, sparseA: true, aT: true},
		{name: "sparse At Bt", n: 12, p: 3, lens: func(j int) int { return 2 }, bad: 17, sparseA: true, aT: true, bT: true},
	}
	for _, lv := range featureLevels() {
		cpu = lv
		for _, c := range cases {
			// The sparse operand has m rows, indexing the dense operand's m
			// rows (of op(A)^T for a dense A, of op(B) for a dense B), and
			// one stored column per row of op(sparse) the product reads.
			cols := c.p
			if c.sparseA {
				cols = c.n
			}
			lens := make([]int, cols)
			for j := range lens {
				lens[j] = c.lens(j)
			}
			for _, row := range []int32{m, m + 1000, -1, math.MaxInt32} {
				s := rowVecBlock(rng, m, lens, false)
				var a, b Block = randDense(rng, c.n, m), s
				if c.aT {
					a = randDense(rng, m, c.n)
				}
				if c.sparseA {
					a, b = s, randDense(rng, m, c.p)
					if c.bT {
						b = randDense(rng, c.p, m)
					}
				}
				dst := dstOnEntry(rng, c.n, c.p)
				want := dst.Clone().(*DenseBlock)
				if c.sparseA {
					refMulAddSD(want, s, b.(*DenseBlock), c.aT, c.bT)
				} else {
					refMulAddDS(want, a.(*DenseBlock), s, c.aT, c.bT)
				}
				good := s.RowIdx[c.bad]
				s.RowIdx[c.bad] = row
				got := func() (v any) {
					defer func() { v = recover() }()
					_ = MulAddTransInto(dst.Clone().(*DenseBlock), a, b, c.aT, c.bT)
					return nil
				}()
				if got != errSparseIndex {
					t.Fatalf("%s, level %+v, row index %d of %d: recovered %v, want the panic %q", c.name, lv, row, m, got, errSparseIndex)
				}
				s.RowIdx[c.bad] = good
				if err := MulAddTransInto(dst, a, b, c.aT, c.bT); err != nil {
					t.Fatal(err)
				}
				if i := sameBits(dst.Data, want.Data); i >= 0 {
					t.Fatalf("%s, level %+v: after the panic element %d is %v, reference %v", c.name, lv, i, dst.Data[i], want.Data[i])
				}
			}
		}
	}
}

// rowVecWindows reports whether some group of eight columns of b, as
// rowDotAVX512 cuts it, holds at most 16 stored entries (its short path) and
// whether some group holds more (its long one).
func rowVecWindows(b *CSCBlock) (short, long bool) {
	for j := 0; j+8 <= b.cols; j += 8 {
		if b.ColPtr[j+8]-b.ColPtr[j] <= 16 {
			short = true
		} else {
			long = true
		}
	}
	return short, long
}

// rowDotFixedSteps is the number of steps rowDotAVX512's short path runs
// before it tests for the end of a group (the ROWSTEPs in sparse_amd64.s).
const rowDotFixedSteps = 4

// rowVecBounds records which boundaries of rowDotAVX512's short path the
// groups of eight columns of some block reached: a window whose longest
// column is rowDotFixedSteps (fixed) or one more (tail), and a window of
// exactly 8 or 9 entries, either side of the second half of its products.
type rowVecBounds struct{ fixed, tail, eight, nine bool }

func (s *rowVecBounds) add(b *CSCBlock) {
	for j := 0; j+8 <= b.cols; j += 8 {
		window := b.ColPtr[j+8] - b.ColPtr[j]
		if window > 16 {
			continue
		}
		var longest int32
		for c := j; c < j+8; c++ {
			longest = max(longest, b.ColPtr[c+1]-b.ColPtr[c])
		}
		s.fixed = s.fixed || longest == rowDotFixedSteps
		s.tail = s.tail || longest == rowDotFixedSteps+1
		s.eight = s.eight || window == 8
		s.nine = s.nine || window == 9
	}
}

// rowVecBlock returns an m x len(lens) CSC block whose column j holds
// lens[j] <= m entries at distinct ascending rows, with an entry at row 0
// and one at row m-1 when it stores any. special plants zeros of both signs,
// infinities of both signs and NaN among the values.
func rowVecBlock(rng *rand.Rand, m int, lens []int, special bool) *CSCBlock {
	b := &CSCBlock{rows: m, cols: len(lens), ColPtr: make([]int32, len(lens)+1)}
	for j, k := range lens {
		rows := rng.Perm(m)[:k]
		slices.Sort(rows)
		for _, r := range rows {
			b.RowIdx = append(b.RowIdx, int32(r))
			b.Values = append(b.Values, rng.NormFloat64())
		}
		b.ColPtr[j+1] = int32(len(b.RowIdx))
	}
	if nnz := len(b.RowIdx); nnz > 0 {
		// The smallest row of the first stored column and the largest of the
		// last: setting them keeps every column ascending.
		b.RowIdx[0], b.RowIdx[nnz-1] = 0, int32(m-1)
		if special {
			for _, v := range []float64{0, math.Copysign(0, -1), posInf, -posInf, posInf - posInf} {
				b.Values[rng.Intn(nnz)] = v
			}
		}
	}
	return b
}

// rowVecDense returns the n x m dense operand of a row-vector product:
// dstOnEntry's values and zeros of both signs and, when special, infinities
// of both signs and NaN.
func rowVecDense(rng *rand.Rand, n, m int, special bool) *DenseBlock {
	a := dstOnEntry(rng, n, m)
	if special {
		for _, v := range []float64{posInf, -posInf, posInf - posInf} {
			a.Data[rng.Intn(len(a.Data))] = v
		}
	}
	return a
}

// TestSparseSparseConcurrentCallers runs the TN product and both forms of the
// row-vector product from several goroutines that share one CSC operand, as
// the executor's block tasks share a grid's blocks; under -race it pins the
// operand as read-only and the pooled row view, marks and accumulators as
// private to a call.
func TestSparseSparseConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const m, p = 96, 80
	hyper := hyperSparse(rng, m, p, 1.25, false)
	filled := hyperSparse(rng, m, p, 10, false)
	rank := randDense(rng, 2, m)
	wantGram := NewDense(p, p)
	refMulAddSS(wantGram, hyper, hyper, true, false)
	wantCross := NewDense(p, p)
	refMulAddSS(wantCross, hyper, filled, true, false)
	wantHyper, wantFilled := NewDense(2, p), NewDense(2, p)
	refMulAddDSRowDot(wantHyper, rank, hyper)
	refMulAddDSRowDot(wantFilled, rank, filled)
	products := []struct {
		a, b Block
		aT   bool
		want *DenseBlock
	}{
		{hyper, hyper, true, wantGram},
		{hyper, filled, true, wantCross},
		{rank, hyper, false, wantHyper},
		{rank, filled, false, wantFilled},
	}
	const callers = 8
	errs := make(chan string, callers)
	for g := 0; g < callers; g++ {
		go func(g int) {
			for r := 0; r < 4*len(products); r++ {
				pr := products[(g+r)%len(products)]
				got := NewDense(pr.want.rows, pr.want.cols)
				if err := MulAddTransInto(got, pr.a, pr.b, pr.aT, false); err != nil {
					errs <- err.Error()
					return
				}
				if i := sameBits(got.Data, pr.want.Data); i >= 0 {
					errs <- fmt.Sprintf("product %d: element %d differs under concurrent callers", (g+r)%len(products), i)
					return
				}
			}
			errs <- ""
		}(g)
	}
	for g := 0; g < callers; g++ {
		if msg := <-errs; msg != "" {
			t.Error(msg)
		}
	}
}

// TestSparseSparseAllocFree verifies that steady-state sparse x sparse and
// row-vector products allocate nothing: the row view, the marks and the
// accumulators are pooled like the sparse x dense scratch.
func TestSparseSparseAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	rng := rand.New(rand.NewSource(18))
	const m, p = 300, 280
	hyper := hyperSparse(rng, m, p, 1.25, false)
	filled := hyperSparse(rng, m, p, 10, false)
	rank := randDense(rng, 1, m)
	gram, vec := NewDense(p, p), NewDense(1, p)
	for name, run := range map[string]func() error{
		"ss-tn":          func() error { return MulAddTransInto(gram, hyper, filled, true, false) },
		"rowvec flat":    func() error { return MulAddTransInto(vec, rank, hyper, false, false) },
		"rowvec columns": func() error { return MulAddTransInto(vec, rank, filled, false, false) },
	} {
		if err := run(); err != nil { // grow the pooled scratch
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(10, func() { _ = run() }); allocs != 0 {
			t.Errorf("%s: %v allocs per product, want 0", name, allocs)
		}
	}
}

// gnmfShape is the thin product the paper's GNMF spends its time in at
// Netflix/10 with k = 64: a 64-row factor against a 1632-wide ratings block
// at 1 % density. dmacbench -kernels times the same shapes (ds-tn, sd-nt,
// ds-rowvec).
const (
	gnmfK       = 64
	gnmfBlock   = 1632
	gnmfDensity = 0.01
)

func benchSparse(rng *rand.Rand, rows, cols int, density float64) *CSCBlock {
	nnz := int(density * float64(rows) * float64(cols))
	coords := make([]Coord, nnz)
	for i := range coords {
		coords[i] = Coord{Row: rng.Intn(rows), Col: rng.Intn(cols), Val: rng.NormFloat64()}
	}
	return NewCSC(rows, cols, coords)
}

func benchMulAdd(b *testing.B, dst *DenseBlock, x, y Block, xT, yT bool) {
	nnz := x.NNZ()
	if y.IsSparse() {
		nnz = y.NNZ()
	}
	lanes := dst.rows
	if x.IsSparse() {
		lanes = dst.cols
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MulAddTransInto(dst, x, y, xT, yT); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(2*float64(nnz)*float64(lanes)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkMulAddDSTN is GNMF's W^T %*% V block product.
func BenchmarkMulAddDSTN(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w := randDense(rng, gnmfBlock, gnmfK)
	v := benchSparse(rng, gnmfBlock, gnmfBlock, gnmfDensity)
	benchMulAdd(b, NewDense(gnmfK, gnmfBlock), w, v, true, false)
}

// BenchmarkMulAddSDNT is GNMF's V %*% H^T block product.
func BenchmarkMulAddSDNT(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	v := benchSparse(rng, gnmfBlock, gnmfBlock, gnmfDensity)
	h := randDense(rng, gnmfK, gnmfBlock)
	benchMulAdd(b, NewDense(gnmfBlock, gnmfK), v, h, false, true)
}

// BenchmarkMulAddGNMFBlocks times the four block products of a GNMF
// iteration — W^T*V, V*H^T, (W^T*W)*H and H*H^T — on one block of each
// GNMF workload of the benchmark ledger: gnmf (Netflix/10, block 1632, k =
// 64) and gnmf_ckpt (Netflix/40, block 408, k = 32), both at 1 % density, at
// one and two kernel workers: whether a second worker pays on these thin
// products is what spParMin and gemmParMin decide.
func BenchmarkMulAddGNMFBlocks(b *testing.B) {
	for _, sh := range []struct {
		name     string
		block, k int
	}{{"gnmf", gnmfBlock, gnmfK}, {"gnmf_ckpt", 408, 32}} {
		rng := rand.New(rand.NewSource(int64(sh.block)))
		bs, k := sh.block, sh.k
		v := benchSparse(rng, bs, bs, gnmfDensity)
		w, h, wtw := randDense(rng, bs, k), randDense(rng, k, bs), randDense(rng, k, k)
		sparseFLOPs, denseFLOPs := 2*float64(v.NNZ()*k), 2*float64(k*k*bs)
		for _, pr := range []struct {
			name   string
			dst    *DenseBlock
			x, y   Block
			xT, yT bool
			flops  float64
		}{
			{"WtV", NewDense(k, bs), w, v, true, false, sparseFLOPs},
			{"VHt", NewDense(bs, k), v, h, false, true, sparseFLOPs},
			{"WtWH", NewDense(k, bs), wtw, h, false, false, denseFLOPs},
			{"HHt", NewDense(k, k), h, h, false, true, denseFLOPs},
		} {
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/%s/workers=%d", sh.name, pr.name, workers), func(b *testing.B) {
					defer SetKernelWorkers(SetKernelWorkers(workers))
					for i := 0; i < b.N; i++ {
						if err := MulAddTransInto(pr.dst, pr.x, pr.y, pr.xT, pr.yT); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(pr.flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			}
		}
	}
}

// BenchmarkMulAddSparseLanes times the sparse x dense forms at lane counts
// from one up to GNMF's k on one gnmf block (1632², 1 %), at one and two
// kernel workers: V*w and V^T*r of the regressions and SVD are sd-nn and
// sd-tn at one lane, GNMF's V*H^T and W^T*V are sd-nt and ds-tn at 64, and
// ds-nt is A*V^T. Which algorithm a form takes at a given lane count
// (sdRowViewMin) is read off here.
func BenchmarkMulAddSparseLanes(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	v := benchSparse(rng, gnmfBlock, gnmfBlock, gnmfDensity)
	for _, form := range []struct {
		name       string
		sparseLeft bool
		aT, bT     bool
	}{
		{"sd-nn", true, false, false}, {"sd-tn", true, true, false}, {"sd-nt", true, false, true},
		{"ds-tn", false, true, false}, {"ds-nt", false, false, true},
	} {
		for _, lanes := range []int{1, 2, 3, 4, 8, 16, 64} {
			// The dense operand is stored lanes x 1632 when it is a
			// transposed right operand or an untransposed left one.
			d := randDense(rng, gnmfBlock, lanes)
			if form.sparseLeft && form.bT || !form.sparseLeft && !form.aT {
				d = randDense(rng, lanes, gnmfBlock)
			}
			x, y, dst := Block(v), Block(d), NewDense(gnmfBlock, lanes)
			if !form.sparseLeft {
				x, y, dst = d, v, NewDense(lanes, gnmfBlock)
			}
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/lanes=%d/workers=%d", form.name, lanes, workers), func(b *testing.B) {
					defer SetKernelWorkers(SetKernelWorkers(workers))
					benchMulAdd(b, dst, x, y, form.aT, form.bT)
				})
				if !form.sparseLeft || form.aT {
					continue
				}
				// A block multiplied once: its row layout is built by the
				// product.
				b.Run(fmt.Sprintf("%s/lanes=%d/workers=%d/cold", form.name, lanes, workers), func(b *testing.B) {
					defer SetKernelWorkers(SetKernelWorkers(workers))
					for i := 0; i < b.N; i++ {
						v.byRow.Store(nil)
						if err := MulAddTransInto(dst, x, y, form.aT, form.bT); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkMulAddDSRowVec is PageRank's rank %*% link block product.
func BenchmarkMulAddDSRowVec(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	rank := randDense(rng, 1, gnmfBlock)
	link := benchSparse(rng, gnmfBlock, gnmfBlock, gnmfDensity)
	benchMulAdd(b, NewDense(1, gnmfBlock), rank, link, false, false)
}

// BenchmarkMulAddDSRowVecHyper is pagerank_wire's rank %*% link block product:
// a 10 606-wide block of a 60 000-node graph cut 6 x 6, the six blocks of a
// block row in turn. hyperSparse at 1.26 leaves every third column empty and
// gives the others 1 or 2 entries, about 0.84 stored entries a column; the
// ledger's link holds 1.33, Poisson (BenchmarkMulAddRowVecBlocks'
// pagerank_wire_poisson).
func BenchmarkMulAddDSRowVecHyper(b *testing.B) {
	const n, blocks = 10606, 6
	rng := rand.New(rand.NewSource(6))
	rank := randDense(rng, 1, n)
	var links [blocks]*CSCBlock
	nnz := 0
	for i := range links {
		links[i] = hyperSparse(rng, n, n, 1.26, false)
		nnz += links[i].NNZ()
	}
	dst := NewDense(1, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, link := range links {
			if err := MulAddTransInto(dst, rank, link, false, false); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(2*float64(nnz)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkMulAddRowVecBlocks times PageRank's rank %*% link over link's
// blocks, go (the flat Go walk) against avx512 (rowDotAVX512). pagerank_wire
// and serve_mix take one block row built by hyperSparse: pagerank_wire's
// 10 606-wide blocks of a 60 000-node graph cut 6 x 6, about 0.84 stored
// entries a column, and a serve_mix pagerank job's 1 024 nodes of degree 8 cut
// into 181-wide blocks, about 0.89. hyperSparse leaves every third column
// empty and gives the others 1 or 2 entries, so no group of eight runs more
// than two steps. pagerank_wire_poisson walks 36 distinct 10 606-wide blocks
// whose coordinates are uniform at random: Poisson columns of 1.33 entries on
// average, the column law workload.PowerLawGraph gives the ledger's link.
func BenchmarkMulAddRowVecBlocks(b *testing.B) {
	defer func(c cpuFeatures) { cpu = c }(cpu)
	for _, sh := range []struct {
		name    string
		n       int
		perCol  float64
		blocks  int
		poisson bool
	}{
		{"pagerank_wire", 10606, 1.26, 6, false},
		{"serve_mix", 181, 1.33, 6, false},
		{"pagerank_wire_poisson", 10606, 1.33, 36, true},
	} {
		rng := rand.New(rand.NewSource(int64(sh.n)))
		rank := randDense(rng, 1, sh.n)
		links := make([]*CSCBlock, sh.blocks)
		nnz := 0
		for i := range links {
			if sh.poisson {
				coords := make([]Coord, int(sh.perCol*float64(sh.n)+0.5))
				for k := range coords {
					coords[k] = Coord{Row: rng.Intn(sh.n), Col: rng.Intn(sh.n), Val: rng.NormFloat64()}
				}
				links[i] = NewCSC(sh.n, sh.n, coords)
			} else {
				links[i] = hyperSparse(rng, sh.n, sh.n, sh.perCol, false)
			}
			nnz += links[i].NNZ()
		}
		dst := NewDense(1, sh.n)
		for _, level := range featureLevels() {
			name := "go"
			if level.avx512 {
				name = "avx512"
			} else if level.avx {
				continue // the row-dot has no AVX form
			}
			b.Run(sh.name+"/"+name, func(b *testing.B) {
				cpu = level
				for i := 0; i < b.N; i++ {
					for _, link := range links {
						if err := MulAddTransInto(dst, rank, link, false, false); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(2*float64(nnz)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

// BenchmarkMulAddSSTN is serve_mix's gram job, t(V) %*% V with V 512 x 128 at
// 5 % in 32-wide blocks: 256 block products of about 50 stored entries each.
func BenchmarkMulAddSSTN(b *testing.B) {
	const rows, cols, bs = 512, 128, 32
	rng := rand.New(rand.NewSource(7))
	coords := make([]Coord, rows*cols/20)
	for i := range coords {
		coords[i] = Coord{Row: rng.Intn(rows), Col: rng.Intn(cols), Val: rng.NormFloat64()}
	}
	v := FromCoords(rows, cols, bs, coords)
	dst := NewDense(bs, bs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for bi := 0; bi < v.BlockCols(); bi++ {
			for bj := 0; bj < v.BlockCols(); bj++ {
				for bk := 0; bk < v.BlockRows(); bk++ {
					if err := MulAddTransInto(dst, v.Block(bk, bi), v.Block(bk, bj), true, false); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
	products := v.BlockCols() * v.BlockCols() * v.BlockRows()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(products), "ns/product")
}

// BenchmarkMulAddDSNN and BenchmarkMulAddSDNN are the square untransposed
// products dmacbench -kernels has always timed as ds and sd.
func BenchmarkMulAddDSNN(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	a := randDense(rng, 512, 512)
	s := benchSparse(rng, 512, 512, 0.05)
	benchMulAdd(b, NewDense(512, 512), a, s, false, false)
}

func BenchmarkMulAddSDNN(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	s := benchSparse(rng, 512, 512, 0.05)
	d := randDense(rng, 512, 512)
	benchMulAdd(b, NewDense(512, 512), s, d, false, false)
}
