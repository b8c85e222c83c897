package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// refMulTrans is the trusted oracle for the transpose-fused kernels: the
// At-based generic fallback, which shares no code with the specialized paths.
func refMulTrans(a, b Block, aT, bT bool) *DenseBlock {
	n, _ := transDims(a, aT)
	_, p := transDims(b, bT)
	out := NewDense(n, p)
	mulAddGenericTrans(out, a, b, aT, bT)
	return out
}

// gemmDims is the shape pool for the differential fuzz: empty and degenerate
// shapes, sizes straddling the gemmSmall cutoff, non-multiples of the
// micro-tile, and sizes larger than gemmMC so strip boundaries are crossed.
var gemmDims = []int{0, 1, 2, 3, 5, 17, 33, 40, 69, 70}

// TestMulAddTransDifferential fuzzes every kernel path (DD tiled and small,
// SD, DS, SS, each under all four transpose combinations) against the generic
// oracle on random shapes and densities, rotating the kernel worker count so
// the parallel dispatch paths see the same shape soup as the serial one.
func TestMulAddTransDifferential(t *testing.T) {
	defer SetKernelWorkers(SetKernelWorkers(1))
	rng := rand.New(rand.NewSource(42))
	mk := func(r, c int, kind int) Block {
		switch kind {
		case 0:
			return randDense(rng, r, c)
		default:
			return randSparse(rng, r, c, []float64{0.05, 0.4, 0.9}[rng.Intn(3)])
		}
	}
	for iter := 0; iter < 400; iter++ {
		n := gemmDims[rng.Intn(len(gemmDims))]
		m := gemmDims[rng.Intn(len(gemmDims))]
		p := gemmDims[rng.Intn(len(gemmDims))]
		aKind, bKind := rng.Intn(2), rng.Intn(2)
		aT, bT := rng.Intn(2) == 1, rng.Intn(2) == 1
		ar, ac := n, m
		if aT {
			ar, ac = m, n
		}
		br, bc := m, p
		if bT {
			br, bc = p, m
		}
		a := mk(ar, ac, aKind)
		b := mk(br, bc, bKind)
		SetKernelWorkers([]int{1, 2, 4}[rng.Intn(3)])
		dst := NewDense(n, p)
		if err := MulAddTransInto(dst, a, b, aT, bT); err != nil {
			t.Fatalf("iter %d (%dx%dx%d aT=%v bT=%v): %v", iter, n, m, p, aT, bT, err)
		}
		want := refMulTrans(a, b, aT, bT)
		if !near(dst, want, 1e-9) {
			t.Fatalf("iter %d: kernel (aKind=%d bKind=%d %dx%dx%d aT=%v bT=%v) differs from oracle",
				iter, aKind, bKind, n, m, p, aT, bT)
		}
	}
}

// TestMulAddTransAccumulates verifies the fused kernels accumulate into a
// non-zero destination rather than overwriting it.
func TestMulAddTransAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randDense(rng, 40, 41)
	b := randDense(rng, 42, 41) // b is stored transposed; op(b) is 41x42
	dst := NewDense(40, 42)
	for i := range dst.Data {
		dst.Data[i] = 1
	}
	if err := MulAddTransInto(dst, a, b, false, true); err != nil {
		t.Fatal(err)
	}
	want := refMulTrans(a, b, false, true)
	for i := range want.Data {
		want.Data[i]++
	}
	if !near(dst, want, 1e-9) {
		t.Error("fused NT kernel does not accumulate into dst")
	}
}

// withGemmKernel runs f with kern as the micro-kernel of every packed
// product.
func withGemmKernel(kern gemmKernel, f func()) {
	defer func(k gemmKernel) { gemmKern = k }(gemmKern)
	gemmKern = kern
	f()
}

// plantSpecials overwrites a few random cells of d with zeros and infinities
// of both signs and the hardware's default NaN (see hyperSparse for why that
// one).
func plantSpecials(rng *rand.Rand, d *DenseBlock) {
	for _, v := range []float64{0, math.Copysign(0, -1), posInf, -posInf, posInf - posInf} {
		d.Data[rng.Intn(len(d.Data))] = v
	}
}

// TestGemmKernelsBitIdentical holds every micro-kernel the CPU offers to the
// pure-Go one, bit for bit, through the packed path (gemmStrided, whatever
// the size): all four transpose forms, result shapes ragged against every
// tile in both dimensions, k depths that cross the gemmKC panels and leave
// tails for the unrolled k loops, a non-zero dst with zeros of both signs,
// specials among the operands, and worker counts that cut the rows into one
// to seven strips.
func TestGemmKernelsBitIdentical(t *testing.T) {
	kernels := gemmKernelsFor(cpu)
	for _, k := range kernels {
		t.Logf("micro-kernel %s (%dx%d)", k.name, k.mr, k.nr)
	}
	dims := []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 63, 65}
	depths := []int{1, 255, 256, 257, 513}
	var shapes [][3]int
	for i, n := range dims {
		for j, p := range dims {
			shapes = append(shapes, [3]int{n, depths[(i+j)%len(depths)], p})
		}
	}
	// Large enough to fan out (gemmParMin), GNMF's thin H*H^T among them.
	thin := [3]int{64, 1632, 64}
	shapes = append(shapes, thin, [3]int{65, 513, 65}, [3]int{129, 257, 131}, [3]int{200, 256, 48})
	if thin[0]*thin[1]*thin[2] < gemmParMin {
		t.Errorf("%v is below gemmParMin: it would not fan out", thin)
	}
	for _, k := range kernels {
		if mc := gemmStripRows(thin[0], 2, k.mr); mc >= thin[0] {
			t.Errorf("%s: two workers get strips of %d rows on %v: one strip, one core", k.name, mc, thin)
		}
		if mc := gemmStripRows(thin[0], 1, k.mr); mc != gemmMC {
			t.Errorf("%s: one worker gets strips of %d rows, want gemmMC", k.name, mc)
		}
	}
	rng := rand.New(rand.NewSource(16))
	for si, sh := range shapes {
		n, m, p := sh[0], sh[1], sh[2]
		for flags := 0; flags < 4; flags++ {
			aT, bT := flags&1 != 0, flags&2 != 0
			ar, ac := n, m
			if aT {
				ar, ac = m, n
			}
			br, bc := m, p
			if bT {
				br, bc = p, m
			}
			a, b := randDense(rng, ar, ac), randDense(rng, br, bc)
			special := (si+flags)%2 == 1
			if special {
				plantSpecials(rng, a)
				plantSpecials(rng, b)
			}
			entry := dstOnEntry(rng, n, p)
			run := func(kern gemmKernel, workers int) *DenseBlock {
				got := entry.Clone().(*DenseBlock)
				withGemmKernel(kern, func() {
					gemmStrided(got.Data, p, n, p, a.Data, ac, aT, b.Data, bc, bT, m, workers)
				})
				return got
			}
			want := run(gemmGoKernel, 1)
			for _, kern := range kernels {
				for _, workers := range []int{1, 2, 3, 7} {
					got := run(kern, workers)
					if d := bitDiff(got, want); d != "" {
						t.Fatalf("%s %dx%dx%d aT=%v bT=%v special=%v workers=%d: got vs pure-Go kernel %s",
							kern.name, n, m, p, aT, bT, special, workers, d)
					}
				}
			}
		}
	}
}

// refGemm is the dense x dense contract as a plain loop over op(A) and
// op(B): with packed, each element's products go k-ascending into an
// accumulator that starts at zero for each gemmKC panel and every panel sum
// is added into dst (the tiled path); without, they go straight into dst
// (mulAddSmallStrided). fused picks the arithmetic of one step: math.FMA
// (KernelVersion 3) or the product rounded, then added (version 2, kept here
// as the reference TestGemmFusedErrorBound measures the change against).
func refGemm(dst, a, b *DenseBlock, aT, bT, packed, fused bool) {
	n, m := transDims(a, aT)
	_, p := transDims(b, bT)
	step := func(x, y, acc float64) float64 {
		if fused {
			return math.FMA(x, y, acc)
		}
		return acc + float64(x*y)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			d := &dst.Data[i*p+j]
			for k0 := 0; k0 < m; k0 += gemmKC {
				acc := 0.0
				if !packed {
					acc = *d
				}
				for k := k0; k < min(k0+gemmKC, m); k++ {
					acc = step(opAt(a, aT, i, k), opAt(b, bT, k, j), acc)
				}
				if packed {
					*d += acc
				} else {
					*d = acc
				}
			}
		}
	}
}

// plantFusedSpecials plants plantSpecials' values and subnormals of both
// signs, the range in which one rounding instead of two shows most.
func plantFusedSpecials(rng *rand.Rand, d *DenseBlock) {
	plantSpecials(rng, d)
	for _, v := range []float64{math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff), -0x1p-1070} {
		d.Data[rng.Intn(len(d.Data))] = v
	}
}

// sameBitsOrNaN is bitDiff up to NaN payloads: the first cell at which x
// and y differ by bit pattern and are not both NaN, or "".
func sameBitsOrNaN(x, y Block) string {
	xd, yd := x.Dense().Data, y.Dense().Data
	for i := range xd {
		if math.Float64bits(xd[i]) != math.Float64bits(yd[i]) && !(math.IsNaN(xd[i]) && math.IsNaN(yd[i])) {
			return fmt.Sprintf("element %d: %v (%#x) vs %v (%#x)", i, xd[i], math.Float64bits(xd[i]), yd[i], math.Float64bits(yd[i]))
		}
	}
	return ""
}

// TestGemmFusedReference holds every micro-kernel the CPU offers, at 1, 2, 3
// and 7 workers, to refGemm's fused loop bit for bit, and MulAddTransInto to
// it on both sides of the gemmSmall routing: all four transpose forms, tiles
// ragged in both dimensions, k = 1 and depths around the gemmKC panels, a
// non-zero dst, and zeros, infinities, the hardware's default NaN and
// subnormals among the operands. The one stated exception is a NaN's
// payload: when two different NaNs meet, which one survives follows the
// operand order of the instruction that met them, which the tiles and the
// compiled loop need not share; a last pass plants NaNs of their own
// payloads and holds the kernels to the same NaN cells and the same bits
// everywhere else.
func TestGemmFusedReference(t *testing.T) {
	defer SetKernelWorkers(SetKernelWorkers(1))
	kernels := gemmKernelsFor(cpu)
	dims := []int{1, 3, 7, 8, 9, 16, 17, 33, 65}
	depths := []int{1, 255, 256, 257, 513}
	var shapes [][3]int
	for i, n := range dims {
		for j, p := range dims {
			shapes = append(shapes, [3]int{n, depths[(i+j)%len(depths)], p})
		}
	}
	shapes = append(shapes, [3]int{64, 1632, 64}, [3]int{129, 257, 131}, [3]int{20, 20, 20}, [3]int{5, 513, 3})
	rng := rand.New(rand.NewSource(28))
	for si, sh := range shapes {
		n, m, p := sh[0], sh[1], sh[2]
		for flags := 0; flags < 4; flags++ {
			aT, bT := flags&1 != 0, flags&2 != 0
			ar, ac := n, m
			if aT {
				ar, ac = m, n
			}
			br, bc := m, p
			if bT {
				br, bc = p, m
			}
			a, b := randDense(rng, ar, ac), randDense(rng, br, bc)
			payloads := si%7 == 3
			switch {
			case payloads:
				a.Data[rng.Intn(len(a.Data))] = math.Float64frombits(0x7ff8000000000abc)
				b.Data[rng.Intn(len(b.Data))] = math.Float64frombits(0xfff0000000000def)
				plantFusedSpecials(rng, a)
			case (si+flags)%2 == 1:
				plantFusedSpecials(rng, a)
				plantFusedSpecials(rng, b)
			}
			same := bitDiff
			if payloads {
				same = sameBitsOrNaN
			}
			entry := dstOnEntry(rng, n, p)
			entry.Data[rng.Intn(len(entry.Data))] = -0x1p-1060
			check := func(what string, got *DenseBlock, packed bool) {
				want := entry.Clone().(*DenseBlock)
				refGemm(want, a, b, aT, bT, packed, true)
				if d := same(got, want); d != "" {
					t.Fatalf("%s %dx%dx%d aT=%v bT=%v payloads=%v: got vs fused reference %s", what, n, m, p, aT, bT, payloads, d)
				}
			}
			for _, kern := range kernels {
				for _, workers := range []int{1, 2, 3, 7} {
					got := entry.Clone().(*DenseBlock)
					withGemmKernel(kern, func() {
						gemmStrided(got.Data, p, n, p, a.Data, ac, aT, b.Data, bc, bT, m, workers)
					})
					check(kern.name+" workers="+itoa(workers), got, true)
				}
			}
			SetKernelWorkers([]int{1, 2, 3, 7}[si%4])
			got := entry.Clone().(*DenseBlock)
			if err := MulAddTransInto(got, a, b, aT, bT); err != nil {
				t.Fatal(err)
			}
			check("MulAddTransInto", got, n*m*p >= gemmSmall)
		}
	}
}

// TestGemmFusedErrorBound measures KernelVersion 3 against version 2, the
// product rounded before it is added (refGemm unfused): per element the two
// differ by at most 2·k·ε·Σ|a_ik·b_kj|, twice the first-order bound each
// keeps to the exact sum. And they must differ somewhere on every shape deep
// enough to round, or the fused arithmetic is not what ran.
func TestGemmFusedErrorBound(t *testing.T) {
	defer SetKernelWorkers(SetKernelWorkers(2))
	const eps = 0x1p-52
	rng := rand.New(rand.NewSource(29))
	for _, sh := range [][3]int{{1, 1, 1}, {9, 7, 5}, {20, 20, 20}, {33, 255, 17}, {65, 513, 64}, {64, 1632, 64}, {129, 257, 131}} {
		n, m, p := sh[0], sh[1], sh[2]
		for flags := 0; flags < 4; flags++ {
			aT, bT := flags&1 != 0, flags&2 != 0
			ar, ac := n, m
			if aT {
				ar, ac = m, n
			}
			br, bc := m, p
			if bT {
				br, bc = p, m
			}
			a, b := randDense(rng, ar, ac), randDense(rng, br, bc)
			v3 := NewDense(n, p)
			if err := MulAddTransInto(v3, a, b, aT, bT); err != nil {
				t.Fatal(err)
			}
			v2 := NewDense(n, p)
			refGemm(v2, a, b, aT, bT, n*m*p >= gemmSmall, false)
			differ := 0
			for i := 0; i < n; i++ {
				for j := 0; j < p; j++ {
					abs := 0.0
					for k := 0; k < m; k++ {
						abs += math.Abs(opAt(a, aT, i, k) * opAt(b, bT, k, j))
					}
					x, y := v3.Data[i*p+j], v2.Data[i*p+j]
					if d := math.Abs(x - y); d > 2*float64(m)*eps*abs {
						t.Fatalf("%dx%dx%d aT=%v bT=%v: element (%d,%d) is %v in v3, %v in v2: |diff| %g over the bound %g",
							n, m, p, aT, bT, i, j, x, y, d, 2*float64(m)*eps*abs)
					}
					if x != y {
						differ++
					}
				}
			}
			if m >= 255 && differ == 0 {
				t.Errorf("%dx%dx%d aT=%v bT=%v: v3 equals v2 in every element; the kernel does not fuse", n, m, p, aT, bT)
			}
		}
	}
}

// TestMulAddTransIntoAllocFree verifies the steady-state dense multiply
// allocates nothing: the packing buffers come from the pool.
func TestMulAddTransIntoAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer SetKernelWorkers(SetKernelWorkers(1)) // a fanned-out product allocates its strip job
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{96, 97} { // whole tiles only; ragged edges through the scratch tile
		a := randDense(rng, n, n)
		b := randDense(rng, n, n)
		dst := NewDense(n, n)
		if avg := testing.AllocsPerRun(10, func() {
			dst.Zero()
			if err := MulAddTransInto(dst, a, b, false, false); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("dense %dx%d MulAddTransInto allocates %v times per op, want 0", n, n, avg)
		}
	}
}

// TestTransDims covers the logical-shape helper.
func TestTransDims(t *testing.T) {
	b := NewDense(3, 5)
	if r, c := transDims(b, false); r != 3 || c != 5 {
		t.Errorf("transDims(false) = %dx%d", r, c)
	}
	if r, c := transDims(b, true); r != 5 || c != 3 {
		t.Errorf("transDims(true) = %dx%d", r, c)
	}
}

func benchDense(n int, seed int64) *DenseBlock {
	rng := rand.New(rand.NewSource(seed))
	d := NewDense(n, n)
	for i := range d.Data {
		d.Data[i] = rng.Float64()*2 - 1
	}
	return d
}

func benchGemm(b *testing.B, n int, f func(dst, x, y *DenseBlock)) {
	x := benchDense(n, 1)
	y := benchDense(n, 2)
	dst := NewDense(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Zero()
		f(dst, x, y)
	}
	gf := 2 * float64(n) * float64(n) * float64(n) * float64(b.N) / b.Elapsed().Seconds() / 1e9
	b.ReportMetric(gf, "GFLOPS")
}

// BenchmarkMulAddDD measures the tiled dense kernel.
func BenchmarkMulAddDD(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		b.Run(sizeName(n), func(b *testing.B) {
			benchGemm(b, n, func(dst, x, y *DenseBlock) {
				if err := MulAddTransInto(dst, x, y, false, false); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// BenchmarkMulAddDDTransposed measures the fused A^T*B path (reads A by
// stride during packing; no transposed copy).
func BenchmarkMulAddDDTransposed(b *testing.B) {
	for _, n := range []int{256, 512} {
		b.Run(sizeName(n), func(b *testing.B) {
			benchGemm(b, n, func(dst, x, y *DenseBlock) {
				if err := MulAddTransInto(dst, x, y, true, false); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// benchGemmShape measures dst += op(x) * op(y) for an n x m x p product.
func benchGemmShape(b *testing.B, n, m, p int, aT, bT bool) {
	rng := rand.New(rand.NewSource(1))
	ar, ac := n, m
	if aT {
		ar, ac = m, n
	}
	br, bc := m, p
	if bT {
		br, bc = p, m
	}
	x, y := randDense(rng, ar, ac), randDense(rng, br, bc)
	dst := NewDense(n, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Zero()
		if err := MulAddTransInto(dst, x, y, aT, bT); err != nil {
			b.Fatal(err)
		}
	}
	gf := 2 * float64(n) * float64(m) * float64(p) * float64(b.N) / b.Elapsed().Seconds() / 1e9
	b.ReportMetric(gf, "GFLOPS")
}

// BenchmarkMulAddDDThin is GNMF's H*H^T at k = 64 on Netflix/10: one 64 x 64
// result block from a 1632-deep product, which only fans out because the
// strip height follows the worker count. Run it with -cpu 1,2.
func BenchmarkMulAddDDThin(b *testing.B) {
	defer SetKernelWorkers(SetKernelWorkers(runtime.GOMAXPROCS(0)))
	benchGemmShape(b, 64, 1632, 64, false, true)
}

// BenchmarkMulAddDDRagged measures shapes the register tile pads: a row
// vector and three rows against a 512-wide block, and cubes one past a tile
// multiple.
func BenchmarkMulAddDDRagged(b *testing.B) {
	for _, sh := range [][3]int{{1, 512, 512}, {3, 512, 512}, {33, 33, 33}, {513, 513, 513}} {
		b.Run(itoa(sh[0])+"x"+itoa(sh[1])+"x"+itoa(sh[2]), func(b *testing.B) {
			benchGemmShape(b, sh[0], sh[1], sh[2], false, false)
		})
	}
}

// BenchmarkMulAddDDKernels measures one 512-cube on every micro-kernel the
// CPU offers, at one kernel worker: the comparison a tile earns its place by.
func BenchmarkMulAddDDKernels(b *testing.B) {
	defer SetKernelWorkers(SetKernelWorkers(1))
	for _, kern := range gemmKernelsFor(cpu) {
		b.Run(kern.name, func(b *testing.B) {
			withGemmKernel(kern, func() { benchGemmShape(b, 512, 512, 512, false, false) })
		})
	}
}

func sizeName(n int) string {
	return "n" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestGemmPackRoundTrip checks the packing layouts directly, at every
// kernel's mr and nr and every feature level (featureLevels: the transposing
// packer in Go and in 8x8 AVX-512 blocks): every packed element must equal
// the corresponding op(x) element of the window, with zero padding beyond
// it, whatever the buffer held before. The windows start at several origins
// and leave every remainder of lanes and k steps against the 8x8 blocks.
func TestGemmPackRoundTrip(t *testing.T) {
	defer func(f cpuFeatures) { cpu = f }(cpu)
	levels := featureLevels()
	rng := rand.New(rand.NewSource(5))
	src := randDense(rng, 37, 41)
	kernels := gemmKernelsFor(cpu)
	// Window origin and its far edge's distance from the source's: lanes
	// from l0, k steps from k0.
	windows := [][4]int{{0, 0, 0, 0}, {2, 3, 0, 0}, {7, 9, 3, 5}, {1, 0, 6, 17}, {8, 16, 13, 1}}
	for _, f := range levels {
		cpu = f
		for _, kern := range kernels {
			for _, w := range []int{kern.mr, kern.nr} {
				for _, trans := range []bool{false, true} {
					// As A: lanes are rows of op(A); as B: columns of op(B).
					for _, asA := range []bool{true, false} {
						for _, win := range windows {
							l0, k0 := win[0], win[1]
							rows, cols := transDims(src, trans)
							lanes, steps := rows, cols
							if !asA {
								lanes, steps = cols, rows
							}
							lw, kw := lanes-l0-win[2], steps-k0-win[3]
							buf := make([]float64, roundUp(lw, w)*kw)
							for i := range buf {
								buf[i] = -1
							}
							var at func(l, k int) float64 // op(x) at lane l, step k
							if asA {
								gemmPackA(buf, w, src.Data, src.cols, trans, l0, lw, k0, kw)
								at = func(l, k int) float64 { return opAt(src, trans, l, k) }
							} else {
								gemmPackB(buf, w, src.Data, src.cols, trans, k0, kw, l0, lw)
								at = func(l, k int) float64 { return opAt(src, trans, k, l) }
							}
							for i, got := range buf {
								panel, k, l := i/(w*kw), i%(w*kw)/w, i%w
								want := 0.0
								if lane := panel*w + l; lane < lw {
									want = at(l0+lane, k0+k)
								}
								if got != want {
									t.Fatalf("%s cpu=%+v w=%d asA=%v trans=%v window=%v: panel %d step %d lane %d holds %v, want %v",
										kern.name, f, w, asA, trans, win, panel, k, l, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// opAt returns op(d)[i, j].
func opAt(d *DenseBlock, trans bool, i, j int) float64 {
	if trans {
		return d.At(j, i)
	}
	return d.At(i, j)
}

// TestMulAddDDSmallNaNSafe: the tiled kernel must propagate NaN/Inf like the
// oracle (no zero-branch shortcuts on the dense path).
func TestMulAddDDNaNPropagation(t *testing.T) {
	a := NewDense(40, 40)
	b := NewDense(40, 40)
	a.Set(0, 0, math.NaN())
	b.Set(0, 0, 1)
	dst := NewDense(40, 40)
	if err := MulAddTransInto(dst, a, b, false, false); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(dst.At(0, 0)) {
		t.Error("NaN not propagated through the dense kernel")
	}
}
