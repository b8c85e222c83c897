package matrix

import (
	"math"
	"math/rand"
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
// overflows and underflows.
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
}

// BenchmarkApplyBlock measures the element-wise functions on a dense block
// of the server's gram job size.
func BenchmarkApplyBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := randDense(rng, 256, 256)
	for _, f := range []UFunc{FuncSigmoid, FuncExp, FuncSqrt, FuncAbs, FuncSign} {
		b.Run(f.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ApplyBlock(f, d)
			}
		})
	}
}
