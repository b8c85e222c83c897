package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestUFuncApply(t *testing.T) {
	cases := []struct {
		f    UFunc
		x    float64
		want float64
	}{
		{FuncSigmoid, 0, 0.5},
		{FuncExp, 0, 1},
		{FuncExp, 1, math.E},
		{FuncLog, math.E, 1},
		{FuncSqrt, 9, 3},
		{FuncAbs, -4, 4},
		{FuncSign, -7, -1},
		{FuncSign, 0, 0},
		{FuncSign, 2.5, 1},
	}
	for _, c := range cases {
		if got := c.f.Apply(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s(%v) = %v, want %v", c.f, c.x, got, c.want)
		}
	}
	if math.Abs(FuncSigmoid.Apply(100)-1) > 1e-9 {
		t.Error("sigmoid should saturate at 1")
	}
}

func TestUFuncValidityAndNames(t *testing.T) {
	for _, f := range []UFunc{FuncSigmoid, FuncExp, FuncLog, FuncSqrt, FuncAbs, FuncSign} {
		if !f.Valid() {
			t.Errorf("%s should be valid", f)
		}
		if f.String() == "" {
			t.Errorf("UFunc %d has no name", f)
		}
	}
	if UFunc(-1).Valid() || UFunc(99).Valid() {
		t.Error("out-of-range UFuncs must be invalid")
	}
}

func TestUFuncSparsityPreservation(t *testing.T) {
	preserving := []UFunc{FuncSqrt, FuncAbs, FuncSign}
	densifying := []UFunc{FuncSigmoid, FuncExp, FuncLog}
	for _, f := range preserving {
		if !f.SparsityPreserving() {
			t.Errorf("%s maps 0 to 0 and should preserve sparsity", f)
		}
		if f.Apply(0) != 0 {
			t.Errorf("%s(0) = %v, claimed zero-preserving", f, f.Apply(0))
		}
	}
	for _, f := range densifying {
		if f.SparsityPreserving() {
			t.Errorf("%s must densify (maps 0 to %v)", f, f.Apply(0))
		}
	}
}

func TestApplyBlockSparseAndDense(t *testing.T) {
	s := NewCSC(3, 3, []Coord{{0, 0, 4}, {2, 1, -9}})
	abs := ApplyBlock(FuncAbs, s)
	if !abs.IsSparse() {
		t.Error("abs of sparse block should stay sparse")
	}
	if abs.At(2, 1) != 9 || abs.At(0, 0) != 4 || abs.At(1, 1) != 0 {
		t.Error("abs values wrong")
	}
	sig := ApplyBlock(FuncSigmoid, s)
	if sig.IsSparse() {
		t.Error("sigmoid must densify")
	}
	if math.Abs(sig.At(1, 1)-0.5) > 1e-12 {
		t.Errorf("sigmoid(0) = %v", sig.At(1, 1))
	}
	// A densifying function works over the dense copy of a sparse block:
	// one block and its data, not a second pair for the result.
	for _, f := range []UFunc{FuncSigmoid, FuncExp, FuncLog} {
		if n := testing.AllocsPerRun(20, func() { ApplyBlock(f, s) }); n != 2 {
			t.Errorf("%s of a sparse block: %v allocations, want 2", f, n)
		}
	}
	d := NewDenseData(2, 2, []float64{1, 4, 9, 16})
	sq := ApplyBlock(FuncSqrt, d)
	for i, want := range []float64{1, 2, 3, 4} {
		if sq.Dense().Data[i] != want {
			t.Errorf("sqrt[%d] = %v, want %v", i, sq.Dense().Data[i], want)
		}
	}
}

func TestApplyGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randGridDense(rng, 9, 7, 4)
	out := ApplyGrid(FuncExp, g)
	for i := 0; i < 9; i++ {
		for j := 0; j < 7; j++ {
			if math.Abs(out.At(i, j)-math.Exp(g.At(i, j))) > 1e-12 {
				t.Fatalf("exp mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// TestUFuncLoopsMatchPerCell checks every function's block loop against its
// per-cell definition, bit for bit, on dense and sparse operands: random
// values of both signs (log and sqrt of a negative are NaN), zeros and
// infinities of both signs, NaN, denormals, and arguments at which exp
// overflows and underflows. Then the loops of exp and sigmoid themselves at
// every feature level (featureLevels), where expAVX512 computes whole groups
// of eight lane by lane: every length from 0 to 17 and 1,023 to 1,025, every
// one of expLaneSpecials in every lane of a group between two all-normal
// groups, and a million random bit patterns. FuzzFusedCells cannot catch a
// wrong lane, since its reference runs the same loops; this test has to.
func TestUFuncLoopsMatchPerCell(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	specials := []float64{
		0, math.Copysign(0, -1), posInf, -posInf, posInf - posInf, math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, -1e-310,
		math.MaxFloat64, -math.MaxFloat64, 709.9, -745.2, 1, -1,
	}
	d := randDense(rng, 13, 11)
	for i := range d.Data {
		d.Data[i] *= 40
	}
	for i, v := range specials {
		d.Data[(i*7)%len(d.Data)] = v
	}
	var coords []Coord
	for i, v := range d.Data {
		if i%3 != 0 {
			coords = append(coords, Coord{Row: i / d.cols, Col: i % d.cols, Val: v})
		}
	}
	s := NewCSC(d.rows, d.cols, coords)
	for _, f := range []UFunc{FuncSigmoid, FuncExp, FuncLog, FuncSqrt, FuncAbs, FuncSign} {
		for _, b := range []Block{d, s} {
			got := ApplyBlock(f, b)
			if wantSparse := b.IsSparse() && f.SparsityPreserving(); got.IsSparse() != wantSparse {
				t.Fatalf("%s: sparse result %v, want %v", f, got.IsSparse(), wantSparse)
			}
			for i := 0; i < b.Rows(); i++ {
				for j := 0; j < b.Cols(); j++ {
					x := b.At(i, j)
					if g, w := got.At(i, j), f.Apply(x); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s(%v) at (%d,%d) sparse=%v: loop gives %v (%#x), per cell %v (%#x)",
							f, x, i, j, b.IsSparse(), g, math.Float64bits(g), w, math.Float64bits(w))
					}
				}
			}
		}
	}

	defer func(c cpuFeatures) { cpu = c }(cpu)
	random := make([]float64, 1_000_003)
	for i := range random {
		random[i] = math.Float64frombits(rng.Uint64())
	}
	for _, level := range featureLevels() {
		cpu = level
		for _, f := range []UFunc{FuncSigmoid, FuncExp} {
			for n := 0; n <= 1025; n++ {
				if n == 18 {
					n = 1023
				}
				checkUFuncLoop(t, f, expNormals(rng, n))
			}
			for _, v := range expLaneSpecials {
				for lane := 0; lane < 8; lane++ {
					x := expNormals(rng, 24)
					x[8+lane] = v
					checkUFuncLoop(t, f, x)
				}
			}
			checkUFuncLoop(t, f, random)
		}
	}
}

// expLaneSpecials are arguments around every branch math.Exp's amd64
// assembly takes off its main path, each with both signs since sigmoid
// negates first: zero, infinity, NaNs with payloads (a signalling one
// among them, which exp returns unquieted), denormals, the Overflow bound
// and its neighbours, the k = 1023.5 rounding to an overflowing exponent,
// the band -708.4 ... -745.2 where the result is denormal or underflows to
// zero with the k = -1022.5 step inside it, the point where |x·log2e| passes
// 2^31 and the conversion to int32 overflows, and ±1e300.
var expLaneSpecials = func() []float64 {
	const overflow = 7.09782712893384e+02
	vs := []float64{
		0, posInf, 1e300, math.MaxFloat64,
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff4000000000002),
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0x7fffffffffffffff),
		math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff), 0x1p-1022,
	}
	near := func(x float64) {
		lo, hi := x, x
		for i := 0; i < 3; i++ {
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, posInf)
			vs = append(vs, lo, hi)
		}
		vs = append(vs, x)
	}
	near(overflow)
	near(1023.5 * math.Ln2)
	near(1022.5 * math.Ln2)
	near(1022 * math.Ln2)
	near(745.1332191019411) // exp(-x) rounds to the smallest denormal or to 0
	near((1 << 31) / math.Log2E)
	near((1<<31 - 0.5) / math.Log2E)
	for x := 708.4; x <= 745.2; x += 0.2 {
		vs = append(vs, x)
	}
	vs = append(vs, 745.2)
	for _, v := range vs[:len(vs):len(vs)] {
		vs = append(vs, -v)
	}
	return vs
}()

// expNormals returns n normal draws of deviation 4: arguments on math.Exp's
// main path, each about e^±12 at most.
func expNormals(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 4 * rng.NormFloat64()
	}
	return x
}

// FuzzUFuncLanes places the float64 of the fuzzed bits at cell lane%17 of a
// vector of 17 normals — two groups of eight and a tail cell — and holds the
// loops of sigmoid and exp to Apply there at every feature level.
func FuzzUFuncLanes(f *testing.F) {
	for i, v := range expLaneSpecials {
		f.Add(math.Float64bits(v), uint8(i))
	}
	defer func(c cpuFeatures) { cpu = c }(cpu)
	levels := featureLevels()
	f.Fuzz(func(t *testing.T, bits uint64, lane uint8) {
		x := expNormals(rand.New(rand.NewSource(int64(bits))), 17)
		x[int(lane)%len(x)] = math.Float64frombits(bits)
		for _, level := range levels {
			cpu = level
			checkUFuncLoop(t, FuncSigmoid, x)
			checkUFuncLoop(t, FuncExp, x)
		}
	})
}

// TestUFuncExpLanesGate holds the start-up check behind expLanes to its
// purpose: at every probe math.Exp's two amd64 paths round apart, math.Exp
// in this process takes one of them, and the vector loop is on exactly when
// that is the FMA one on a CPU with AVX-512 and FMA. Under
// GODEBUG=cpu.fma=off math.Exp takes the other path and the loop is off.
func TestUFuncExpLanesGate(t *testing.T) {
	fmaPath := true
	for _, x := range expProbes {
		fused, plain := archExpMain(x, true), archExpMain(x, false)
		switch got := math.Float64bits(math.Exp(x)); {
		case fused == plain:
			t.Fatalf("probe %v: both paths give %#x", x, fused)
		case got == plain:
			fmaPath = false
		case got != fused:
			t.Fatalf("probe %v: math.Exp gives %#x, neither path's (%#x, %#x)", x, got, fused, plain)
		}
	}
	host := detectCPU()
	if want := host.avx512 && host.fma && fmaPath; expLanesExact != want {
		t.Fatalf("vector exp on = %v, want %v (AVX-512 %v, FMA %v, math.Exp on its FMA path %v)",
			expLanesExact, want, host.avx512, host.fma, fmaPath)
	}
}

// archExpMain is math.Exp's amd64 assembly on its main path, with the fused
// multiply-adds of its FMA branch or the separate multiplies and adds of the
// other.
func archExpMain(x float64, fused bool) uint64 {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2U  = 0.69314718055966295651160180568695068359375
		ln2L  = 0.28235290563031577122588448175013436025525412068e-12
	)
	madd := func(a, b, c float64) float64 {
		if fused {
			return math.FMA(a, b, c)
		}
		return float64(a*b) + c
	}
	k := math.RoundToEven(log2e * x)
	x = madd(-k, ln2U, x)
	x = madd(-k, ln2L, x)
	x *= 0.0625
	p := 2.4801587301587301587e-5
	for _, c := range []float64{1.9841269841269841270e-4, 1.3888888888888888889e-3, 8.3333333333333333333e-3,
		4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1} {
		p = madd(x, p, c)
	}
	y := x * p
	for i := 0; i < 3; i++ {
		y *= y + 2
	}
	y = madd(y+2, y, 1)
	return math.Float64bits(y * math.Float64frombits(uint64(k+0x3ff)<<52))
}

// checkUFuncLoop runs f's block loop over x into a fresh destination and in
// place, and fails at the first cell whose bits are not Apply's.
func checkUFuncLoop(t testing.TB, f UFunc, x []float64) {
	t.Helper()
	fresh, inPlace := make([]float64, len(x)), slices.Clone(x)
	f.applyInto(fresh, x)
	f.applyInto(inPlace, inPlace)
	for i, v := range x {
		want := math.Float64bits(f.Apply(v))
		for leg, got := range [][]float64{fresh, inPlace} {
			if g := math.Float64bits(got[i]); g != want {
				t.Fatalf("cpu=%+v %s n=%d in place=%v: cell %d of %#x is %#x, per cell %#x",
					cpu, f, len(x), leg == 1, i, math.Float64bits(v), g, want)
			}
		}
	}
}

// BenchmarkApplyBlock measures the element-wise functions on a dense block
// of the blend job's served size (45 × 45: Eq. 3 at n = 256, 2,025 cells,
// a tail of one behind the groups of eight) and on one of 256 × 256, at
// every feature level (featureLevels: the Go loops, then the AVX-512 ones,
// which only exp and sigmoid have).
func BenchmarkApplyBlock(b *testing.B) {
	defer func(c cpuFeatures) { cpu = c }(cpu)
	levels := featureLevels()
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{45, 256} {
		d := randDense(rng, n, n)
		for _, f := range []UFunc{FuncSigmoid, FuncExp, FuncSqrt, FuncAbs, FuncSign} {
			for _, level := range levels {
				name := "go"
				switch {
				case level.avx512 && (f == FuncSigmoid || f == FuncExp):
					name = "avx512"
				case level.avx:
					continue // no vector form at this level
				}
				b.Run(fmt.Sprintf("%dx%d/%s/%s", n, n, f, name), func(b *testing.B) {
					cpu = level
					for i := 0; i < b.N; i++ {
						ApplyBlock(f, d)
					}
				})
			}
		}
	}
}
