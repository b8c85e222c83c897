package matrix

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func randDense(rng *rand.Rand, rows, cols int) *DenseBlock {
	d := NewDense(rows, cols)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return d
}

func randSparse(rng *rand.Rand, rows, cols int, sparsity float64) *CSCBlock {
	var coords []Coord
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < sparsity {
				coords = append(coords, Coord{Row: i, Col: j, Val: rng.NormFloat64()})
			}
		}
	}
	return NewCSC(rows, cols, coords)
}

func TestDenseBasics(t *testing.T) {
	d := NewDense(2, 3)
	d.Set(0, 0, 1)
	d.Set(1, 2, -4.5)
	if got := d.At(0, 0); got != 1 {
		t.Errorf("At(0,0) = %v, want 1", got)
	}
	if got := d.At(1, 2); got != -4.5 {
		t.Errorf("At(1,2) = %v, want -4.5", got)
	}
	if got := d.At(0, 1); got != 0 {
		t.Errorf("At(0,1) = %v, want 0", got)
	}
	if d.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2", d.NNZ())
	}
	if d.IsSparse() {
		t.Error("dense block reported sparse")
	}
	if d.Rows() != 2 || d.Cols() != 3 {
		t.Errorf("shape = %dx%d, want 2x3", d.Rows(), d.Cols())
	}
}

func TestDenseTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := randDense(rng, 3, 5)
	tr := d.Transpose()
	if tr.Rows() != 5 || tr.Cols() != 3 {
		t.Fatalf("transpose shape = %dx%d, want 5x3", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			if d.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	// Double transpose is identity.
	if !Equal(d, tr.Transpose(), 0) {
		t.Error("double transpose is not identity")
	}
}

func TestDenseCloneIsDeep(t *testing.T) {
	d := NewDense(2, 2)
	d.Set(0, 0, 7)
	c := d.Clone().(*DenseBlock)
	c.Set(0, 0, 9)
	if d.At(0, 0) != 7 {
		t.Error("Clone shares storage with original")
	}
}

func TestDenseScaleAndScalarOps(t *testing.T) {
	d := NewDense(1, 3)
	copy(d.Data, []float64{1, 2, 3})
	s := d.Scale(2)
	want := []float64{2, 4, 6}
	for i, w := range want {
		if s.(*DenseBlock).Data[i] != w {
			t.Errorf("Scale[%d] = %v, want %v", i, s.(*DenseBlock).Data[i], w)
		}
	}
	if d.Data[0] != 1 {
		t.Error("Scale mutated the receiver")
	}
	d.Zero()
	if d.Sum() != 0 {
		t.Error("Zero did not clear block")
	}
}

func TestCSCConstructionAndAt(t *testing.T) {
	// The example of Figure 5 in the paper (4x4, 7 non-zeros).
	coords := []Coord{
		{1, 0, 2}, {0, 1, 3}, {2, 1, 2}, {0, 2, 2}, {1, 2, 4}, {3, 2, 2}, {2, 3, 1},
	}
	s := NewCSC(4, 4, coords)
	if s.NNZ() != 7 {
		t.Fatalf("NNZ = %d, want 7", s.NNZ())
	}
	wantColPtr := []int32{0, 1, 3, 6, 7}
	for i, w := range wantColPtr {
		if s.ColPtr[i] != w {
			t.Errorf("ColPtr[%d] = %d, want %d", i, s.ColPtr[i], w)
		}
	}
	for _, c := range coords {
		if got := s.At(c.Row, c.Col); got != c.Val {
			t.Errorf("At(%d,%d) = %v, want %v", c.Row, c.Col, got, c.Val)
		}
	}
	if got := s.At(0, 0); got != 0 {
		t.Errorf("At(0,0) = %v, want 0", got)
	}
	if s.Rows() != 4 || s.Cols() != 4 || !s.IsSparse() {
		t.Error("shape or IsSparse wrong")
	}
}

func TestCSCDuplicateCoordsSummed(t *testing.T) {
	s := NewCSC(2, 2, []Coord{{0, 0, 1}, {0, 0, 2.5}, {1, 1, -1}})
	if got := s.At(0, 0); got != 3.5 {
		t.Errorf("duplicate sum = %v, want 3.5", got)
	}
	if s.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2", s.NNZ())
	}
}

func TestCSCDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := randSparse(rng, 13, 7, 0.3)
	d := s.Dense()
	if !Equal(s, d, 0) {
		t.Error("Dense() does not match CSC contents")
	}
	// Rebuild CSC from the dense coords and compare.
	var coords []Coord
	for i := 0; i < 13; i++ {
		for j := 0; j < 7; j++ {
			if v := d.At(i, j); v != 0 {
				coords = append(coords, Coord{i, j, v})
			}
		}
	}
	s2 := NewCSC(13, 7, coords)
	if !Equal(s, s2, 0) {
		t.Error("CSC -> dense -> CSC round trip mismatch")
	}
}

func TestCSCTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randSparse(rng, 9, 14, 0.25)
	tr := s.Transpose()
	if tr.Rows() != 14 || tr.Cols() != 9 {
		t.Fatalf("transpose shape = %dx%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 9; i++ {
		for j := 0; j < 14; j++ {
			if s.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	if !Equal(s, tr.Transpose(), 0) {
		t.Error("double transpose is not identity")
	}
	if tr.(*CSCBlock).NNZ() != s.NNZ() {
		t.Error("transpose changed NNZ")
	}
}

func TestCSCCoordsAndEachNZ(t *testing.T) {
	coords := []Coord{{0, 1, 5}, {2, 0, 3}}
	s := NewCSC(3, 2, coords)
	got := s.Coords()
	if len(got) != 2 {
		t.Fatalf("Coords len = %d", len(got))
	}
	// Column-major order: (2,0) before (0,1).
	if got[0] != (Coord{2, 0, 3}) || got[1] != (Coord{0, 1, 5}) {
		t.Errorf("Coords = %v", got)
	}
	n := 0
	s.EachNZ(func(i, j int, v float64) { n++ })
	if n != 2 {
		t.Errorf("EachNZ visited %d, want 2", n)
	}
}

func TestSparsity(t *testing.T) {
	s := NewCSC(4, 5, []Coord{{0, 0, 1}, {1, 1, 1}})
	if got := Sparsity(s); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("Sparsity = %v, want 0.1", got)
	}
	if got := Sparsity(NewCSCEmpty(0, 0)); got != 0 {
		t.Errorf("Sparsity of empty = %v", got)
	}
}

func TestMemBytes(t *testing.T) {
	d := NewDense(10, 20)
	if got := d.MemBytes(); got != 8*10*20 {
		t.Errorf("dense MemBytes = %d, want %d", got, 8*10*20)
	}
	s := NewCSC(10, 20, []Coord{{0, 0, 1}, {5, 19, 2}})
	want := int64(4*(20+1) + 12*2)
	if got := s.MemBytes(); got != want {
		t.Errorf("sparse MemBytes = %d, want %d", got, want)
	}
}

func TestScalarOpsSparsityPreservation(t *testing.T) {
	s := NewCSC(3, 3, []Coord{{0, 0, 2}, {2, 2, 4}})
	mul := Scalar(ScalarMul, s, 3)
	if !mul.IsSparse() {
		t.Error("ScalarMul should keep block sparse")
	}
	if got := mul.At(0, 0); got != 6 {
		t.Errorf("ScalarMul At(0,0) = %v, want 6", got)
	}
	add := Scalar(ScalarAdd, s, 1)
	if add.IsSparse() {
		t.Error("ScalarAdd with c!=0 must densify")
	}
	if got := add.At(1, 1); got != 1 {
		t.Errorf("ScalarAdd At(1,1) = %v, want 1", got)
	}
	rsub := Scalar(ScalarRSub, s, 10)
	if got := rsub.At(0, 0); got != 8 {
		t.Errorf("ScalarRSub At(0,0) = %v, want 8", got)
	}
	if got := rsub.At(0, 1); got != 10 {
		t.Errorf("ScalarRSub At(0,1) = %v, want 10", got)
	}
}

func TestCellwiseDense(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseData(2, 2, []float64{5, 6, 7, 8})
	cases := []struct {
		op   BinOp
		want []float64
	}{
		{OpAdd, []float64{6, 8, 10, 12}},
		{OpSub, []float64{-4, -4, -4, -4}},
		{OpCellMul, []float64{5, 12, 21, 32}},
		{OpCellDiv, []float64{0.2, 2.0 / 6, 3.0 / 7, 0.5}},
	}
	for _, c := range cases {
		got, err := Cellwise(c.op, a, b)
		if err != nil {
			t.Fatalf("%v: %v", c.op, err)
		}
		if !Equal(got, NewDenseData(2, 2, c.want), 1e-15) {
			t.Errorf("%v: got %v, want %v", c.op, got.Dense().Data, c.want)
		}
	}
}

func TestCellwiseShapeError(t *testing.T) {
	a := NewDense(2, 2)
	b := NewDense(2, 3)
	if _, err := Cellwise(OpAdd, a, b); err == nil {
		t.Error("expected shape error")
	}
	add := binTree(OpAdd)
	if _, err := add.EvalBlock([]Block{a, b}, nil, nil); !errors.Is(err, ErrShape) {
		t.Errorf("EvalBlock on mismatched inputs: %v, want ErrShape", err)
	}
	if _, err := add.EvalBlock([]Block{a, a}, NewDense(2, 3), nil); !errors.Is(err, ErrShape) {
		t.Errorf("EvalBlock into a mismatched destination: %v, want ErrShape", err)
	}
	if _, err := add.EvalBlock([]Block{a}, nil, nil); !errors.Is(err, ErrShape) {
		t.Errorf("EvalBlock with a missing input: %v, want ErrShape", err)
	}
}

func TestCellMulSparseSparse(t *testing.T) {
	a := NewCSC(3, 3, []Coord{{0, 0, 2}, {1, 1, 3}, {2, 2, 4}})
	b := NewCSC(3, 3, []Coord{{0, 0, 5}, {2, 2, 6}, {0, 2, 9}})
	got, err := Cellwise(OpCellMul, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsSparse() {
		t.Error("sparse*sparse cell-mul should stay sparse")
	}
	if got.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2 (pattern intersection)", got.NNZ())
	}
	if got.At(0, 0) != 10 || got.At(2, 2) != 24 {
		t.Errorf("values wrong: %v %v", got.At(0, 0), got.At(2, 2))
	}
}

func TestCellwiseMixedDensities(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := randSparse(rng, 6, 6, 0.4)
	d := randDense(rng, 6, 6)
	for _, op := range []BinOp{OpAdd, OpSub, OpCellMul} {
		got, err := Cellwise(op, s, d)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				want := op.apply(s.At(i, j), d.At(i, j))
				if math.Abs(got.At(i, j)-want) > 1e-12 {
					t.Fatalf("op %v at (%d,%d): got %v, want %v", op, i, j, got.At(i, j), want)
				}
			}
		}
	}
}

// binTree is the tree of one binary operator over two inputs.
func binTree(op BinOp) *CellTree {
	return &CellTree{Inputs: 2, Links: []CellLink{{Kind: LinkBin, BinOp: op, A: CellInput(0), B: CellInput(1)}}}
}

func TestEvalBlockInto(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseData(2, 2, []float64{4, 3, 2, 1})
	dst := NewDense(2, 2)
	got, err := binTree(OpAdd).EvalBlock([]Block{a, b}, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != Block(dst) {
		t.Fatal("EvalBlock did not return the destination it was given")
	}
	for _, v := range dst.Data {
		if v != 5 {
			t.Fatalf("EvalBlock result = %v, want all 5", dst.Data)
		}
	}
}

func TestSumAndFrobenius(t *testing.T) {
	d := NewDenseData(2, 2, []float64{1, -2, 3, -4})
	if got := Sum(d); got != -2 {
		t.Errorf("Sum = %v, want -2", got)
	}
	if got := FrobeniusSq(d); got != 30 {
		t.Errorf("FrobeniusSq = %v, want 30", got)
	}
	s := NewCSC(2, 2, []Coord{{0, 0, 3}, {1, 1, 4}})
	if got := Sum(s); got != 7 {
		t.Errorf("sparse Sum = %v, want 7", got)
	}
	if got := FrobeniusSq(s); got != 25 {
		t.Errorf("sparse FrobeniusSq = %v, want 25", got)
	}
}

func TestBinOpScalarOpStrings(t *testing.T) {
	if OpAdd.String() != "+" || OpSub.String() != "-" || OpCellMul.String() != "*" || OpCellDiv.String() != "/" {
		t.Error("BinOp strings wrong")
	}
	if BinOp(99).String() != "?" {
		t.Error("unknown BinOp string")
	}
	for _, op := range []ScalarOp{ScalarMul, ScalarAdd, ScalarSub, ScalarDiv, ScalarRSub, ScalarRDiv} {
		if op.String() == "?c" {
			t.Errorf("ScalarOp %d has no string", op)
		}
	}
}

// apply is the per-cell definition of the binary operators: the reference
// the per-operator loops of applyInto are held to.
func (op BinOp) apply(a, b float64) float64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpCellMul:
		return a * b
	case OpCellDiv:
		return a / b
	default:
		panic("matrix: unknown BinOp")
	}
}

// apply is the per-cell definition of the scalar operators.
func (op ScalarOp) apply(x, c float64) float64 {
	switch op {
	case ScalarMul:
		return x * c
	case ScalarAdd:
		return x + c
	case ScalarSub:
		return x - c
	case ScalarDiv:
		return x / c
	case ScalarRSub:
		return c - x
	case ScalarRDiv:
		return c / x
	default:
		panic("matrix: unknown ScalarOp")
	}
}

// TestOperatorLoopsMatchPerCell checks every operator's block loop against
// its per-cell definition, bit for bit, on dense and sparse operands; then
// the loops themselves, applyInto and countNonZero, at every feature level
// (featureLevels): every length from 0 to 17 and 1,023 to 1,025 (the vector
// loops' groups of 8 and 32 and the Go tail), into a fresh destination and
// over either operand, on operands drawn from cellPayloads.
func TestOperatorLoopsMatchPerCell(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a, b := randDense(rng, 9, 7), randDense(rng, 9, 7)
	b.Data[3] = 0 // a division by zero must come out the same too
	for _, op := range []BinOp{OpAdd, OpSub, OpCellMul, OpCellDiv} {
		got, err := Cellwise(op, a, b)
		if err != nil {
			t.Fatal(err)
		}
		// The evaluator's three ways of producing the same block: fresh,
		// into a destination, and over the second operand.
		fresh, err := binTree(op).EvalBlock([]Block{a, b}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		into := NewDense(9, 7)
		if _, err := binTree(op).EvalBlock([]Block{a, b}, into, nil); err != nil {
			t.Fatal(err)
		}
		over := b.Clone().(*DenseBlock)
		if _, err := binTree(op).EvalBlock([]Block{a, over}, over, nil); err != nil {
			t.Fatal(err)
		}
		for i := range a.Data {
			want := math.Float64bits(op.apply(a.Data[i], b.Data[i]))
			for leg, g := range map[string]float64{
				"Cellwise": got.(*DenseBlock).Data[i], "EvalBlock": fresh.(*DenseBlock).Data[i],
				"EvalBlock into": into.Data[i], "EvalBlock in place": over.Data[i],
			} {
				if math.Float64bits(g) != want {
					t.Fatalf("op %v cell %d: %s %v, per-cell %v", op, i, leg, g, op.apply(a.Data[i], b.Data[i]))
				}
			}
		}
	}
	s := randSparse(rng, 9, 7, 0.4)
	for _, op := range []ScalarOp{ScalarMul, ScalarAdd, ScalarSub, ScalarDiv, ScalarRSub, ScalarRDiv} {
		for _, blk := range []Block{a, s} {
			got := Scalar(op, blk, 2.5)
			if got.IsSparse() != (blk.IsSparse() && op.SparsityPreserving(2.5)) {
				t.Fatalf("op %v: result sparse=%v", op, got.IsSparse())
			}
			for i := 0; i < 9; i++ {
				for j := 0; j < 7; j++ {
					want := op.apply(blk.At(i, j), 2.5)
					if blk.IsSparse() && got.IsSparse() && blk.At(i, j) == 0 {
						want = 0 // cells outside the pattern are not computed
					}
					if g := got.At(i, j); math.Float64bits(g) != math.Float64bits(want) {
						t.Fatalf("op %v sparse=%v at (%d,%d): got %v, per-cell %v", op, blk.IsSparse(), i, j, g, want)
					}
				}
			}
		}
	}

	defer func(f cpuFeatures) { cpu = f }(cpu)
	lengths := []int{1023, 1024, 1025}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	draw := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			if rng.Intn(2) == 0 {
				x[i] = cellPayloads[rng.Intn(len(cellPayloads))]
			}
		}
		return x
	}
	// same reports whether got is the per-cell result want of x op y, bit
	// for bit; where both operands are NaN and op commutes, the compiler may
	// have made either the first source of the per-cell definition, so the
	// quiet form of either payload is the result.
	same := func(got, want, x, y float64, commutes bool) bool {
		g := math.Float64bits(got)
		if g == math.Float64bits(want) {
			return true
		}
		const quiet = 1 << 51
		return commutes && math.IsNaN(x) && math.IsNaN(y) &&
			(g == math.Float64bits(x)|quiet || g == math.Float64bits(y)|quiet)
	}
	const unwritten = -12345.5
	nan := cellPayloads[4]
	for _, f := range featureLevels() {
		cpu = f
		for _, n := range lengths {
			a, b := draw(n), draw(n)
			for _, op := range []BinOp{OpAdd, OpSub, OpCellMul, OpCellDiv} {
				for _, into := range []string{"fresh", "over a", "over b"} {
					x, y, dst := slices.Clone(a), slices.Clone(b), make([]float64, n)
					switch into {
					case "fresh":
						for i := range dst {
							dst[i] = unwritten
						}
					case "over a":
						dst = x
					default:
						dst = y
					}
					op.applyInto(dst, x, y)
					for i, g := range dst {
						if !same(g, op.apply(a[i], b[i]), a[i], b[i], op == OpAdd || op == OpCellMul) {
							t.Fatalf("cpu=%+v n=%d op %v %s: cell %d is %x, per-cell %x of %x, %x", f, n, op, into, i,
								math.Float64bits(g), math.Float64bits(op.apply(a[i], b[i])), math.Float64bits(a[i]), math.Float64bits(b[i]))
						}
					}
				}
			}
			for _, op := range []ScalarOp{ScalarMul, ScalarAdd, ScalarSub, ScalarDiv, ScalarRSub, ScalarRDiv} {
				for _, c := range []float64{2.5, nan, math.Copysign(0, -1)} {
					for _, inPlace := range []bool{false, true} {
						x, dst := slices.Clone(a), make([]float64, n)
						for i := range dst {
							dst[i] = unwritten
						}
						if inPlace {
							dst = x
						}
						op.applyInto(dst, x, c)
						for i, g := range dst {
							if !same(g, op.apply(a[i], c), a[i], c, op == ScalarMul || op == ScalarAdd) {
								t.Fatalf("cpu=%+v n=%d op %v c=%x in place=%v: cell %d is %x, per-cell %x of %x", f, n, op, math.Float64bits(c), inPlace, i,
									math.Float64bits(g), math.Float64bits(op.apply(a[i], c)), math.Float64bits(a[i]))
							}
						}
					}
				}
			}
			want := int64(0)
			for _, v := range a {
				if v != 0 {
					want++
				}
			}
			if got := countNonZero(a); got != want {
				t.Fatalf("cpu=%+v n=%d: countNonZero %d, per-cell %d", f, n, got, want)
			}
		}
	}
}
