package matrix

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func randGridDense(rng *rand.Rand, rows, cols, bs int) *Grid {
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	return FromDense(rows, cols, bs, data)
}

func randGridSparse(rng *rand.Rand, rows, cols, bs int, sparsity float64) *Grid {
	var coords []Coord
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < sparsity {
				coords = append(coords, Coord{Row: i, Col: j, Val: rng.NormFloat64()})
			}
		}
	}
	return FromCoords(rows, cols, bs, coords)
}

func TestGridShapeAndRaggedBlocks(t *testing.T) {
	g := NewGrid(10, 7, 4)
	if g.BlockRows() != 3 || g.BlockCols() != 2 {
		t.Fatalf("block grid = %dx%d, want 3x2", g.BlockRows(), g.BlockCols())
	}
	r, c := g.BlockDims(2, 1)
	if r != 2 || c != 3 {
		t.Errorf("ragged block dims = %dx%d, want 2x3", r, c)
	}
	r, c = g.BlockDims(0, 0)
	if r != 4 || c != 4 {
		t.Errorf("full block dims = %dx%d, want 4x4", r, c)
	}
}

func TestGridFromCoordsAt(t *testing.T) {
	coords := []Coord{{0, 0, 1}, {9, 6, 2}, {4, 4, 3}}
	g := FromCoords(10, 7, 4, coords)
	for _, c := range coords {
		if got := g.At(c.Row, c.Col); got != c.Val {
			t.Errorf("At(%d,%d) = %v, want %v", c.Row, c.Col, got, c.Val)
		}
	}
	if g.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3", g.NNZ())
	}
}

func TestGridTransposeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	g := randGridSparse(rng, 17, 11, 5, 0.2)
	tr := g.Transpose()
	if tr.Rows() != 11 || tr.Cols() != 17 {
		t.Fatalf("transpose shape = %dx%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 17; i++ {
		for j := 0; j < 11; j++ {
			if g.At(i, j) != tr.At(j, i) {
				t.Fatalf("mismatch at (%d,%d)", i, j)
			}
		}
	}
	if BitDiff(g, tr.Transpose()) != "" {
		t.Error("double transpose is not identity")
	}
}

func TestMulGridMatchesBlockMul(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randGridDense(rng, 13, 9, 4)
	b := randGridSparse(rng, 9, 15, 4, 0.3)
	got, err := MulGrid(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: multiply the fully materialized matrices with one block.
	fa := FromDense(13, 9, 16, a.ToDense())
	fb := FromDense(9, 15, 16, b.ToDense())
	want, err := MulGrid(fa, fb)
	if err != nil {
		t.Fatal(err)
	}
	if !GridEqual(got, want, 1e-9) {
		t.Error("blocked product differs from single-block product")
	}
}

func TestMulGridErrors(t *testing.T) {
	if _, err := MulGrid(NewDenseGrid(3, 4, 2), NewDenseGrid(5, 3, 2)); err == nil {
		t.Error("expected inner-dimension error")
	}
	if _, err := MulGrid(NewDenseGrid(3, 4, 2), NewDenseGrid(4, 3, 3)); err == nil {
		t.Error("expected block-size mismatch error")
	}
}

func TestCellwiseGridAndScalarGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := randGridDense(rng, 8, 8, 3)
	b := randGridDense(rng, 8, 8, 3)
	sum, err := CellwiseGrid(OpAdd, a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			want := a.At(i, j) + b.At(i, j)
			if d := sum.At(i, j) - want; d > 1e-12 || d < -1e-12 {
				t.Fatalf("sum mismatch at (%d,%d)", i, j)
			}
		}
	}
	if _, err := CellwiseGrid(OpAdd, a, NewDenseGrid(8, 8, 4)); err == nil {
		t.Error("expected block-size mismatch error")
	}
	sc := ScalarGrid(ScalarMul, a, -2)
	if d := sc.At(0, 0) - a.At(0, 0)*-2; d > 1e-12 || d < -1e-12 {
		t.Error("ScalarGrid wrong")
	}
}

func TestSumAndFrobeniusGrid(t *testing.T) {
	g := FromDense(2, 3, 2, []float64{1, 2, 3, 4, 5, 6})
	if got := SumGrid(g); got != 21 {
		t.Errorf("SumGrid = %v, want 21", got)
	}
	if got := FrobeniusSqGrid(g); got != 91 {
		t.Errorf("FrobeniusSqGrid = %v, want 91", got)
	}
}

func TestGridCloneIsDeep(t *testing.T) {
	g := NewDenseGrid(4, 4, 2)
	g.Set(0, 0, 5)
	c := g.Clone()
	c.Set(0, 0, 9)
	if g.At(0, 0) != 5 {
		t.Error("Clone shares blocks with original")
	}
}

// Property (testing/quick): ToDense o FromDense is the identity for any
// block size.
func TestQuickFromDenseRoundTrip(t *testing.T) {
	f := func(seed int64, bsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		bs := 1 + int(bsRaw)%12
		data := make([]float64, rows*cols)
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		g := FromDense(rows, cols, bs, data)
		got := g.ToDense()
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property (testing/quick): the blocked product is independent of the block
// size.
func TestQuickMulGridBlockSizeInvariance(t *testing.T) {
	f := func(seed int64, bs1Raw, bs2Raw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m, p := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10)
		bs1 := 1 + int(bs1Raw)%10
		bs2 := 1 + int(bs2Raw)%10
		da := make([]float64, n*m)
		db := make([]float64, m*p)
		for i := range da {
			da[i] = rng.NormFloat64()
		}
		for i := range db {
			db[i] = rng.NormFloat64()
		}
		r1, err := MulGrid(FromDense(n, m, bs1, da), FromDense(m, p, bs1, db))
		if err != nil {
			return false
		}
		r2, err := MulGrid(FromDense(n, m, bs2, da), FromDense(m, p, bs2, db))
		if err != nil {
			return false
		}
		return GridEqual(r1, r2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property (testing/quick): grid transpose equals element-wise transpose.
func TestQuickGridTranspose(t *testing.T) {
	f := func(seed int64, bsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(15), 1+rng.Intn(15)
		bs := 1 + int(bsRaw)%8
		g := randGridSparse(rng, rows, cols, bs, 0.3)
		tr := g.Transpose()
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if g.At(i, j) != tr.At(j, i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestGridNNZMemoInvalidation checks that every way of changing a grid's
// contents through the Grid API drops the memoised count.
func TestGridNNZMemoInvalidation(t *testing.T) {
	g := NewDenseGrid(5, 5, 2)
	if got := g.NNZ(); got != 0 {
		t.Fatalf("empty grid NNZ = %d", got)
	}
	g.Set(4, 4, 3)
	if got := g.NNZ(); got != 1 {
		t.Fatalf("NNZ after Set = %d, want 1", got)
	}
	g.Set(4, 4, 0)
	if got := g.NNZ(); got != 0 {
		t.Fatalf("NNZ after Set to zero = %d, want 0", got)
	}
	g.SetBlock(0, 1, NewCSC(2, 2, []Coord{{0, 0, 1}, {1, 1, 2}}))
	if got := g.NNZ(); got != 2 {
		t.Fatalf("NNZ after SetBlock = %d, want 2", got)
	}
	g.SetBlock(0, 1, NewCSCEmpty(2, 2))
	if got := g.NNZ(); got != 0 {
		t.Fatalf("NNZ after SetBlock(empty) = %d, want 0", got)
	}
	// Derived grids start uncounted rather than inheriting a stale memo.
	g.Set(0, 0, 7)
	if c := g.Clone(); c.NNZ() != 1 || g.Transpose().NNZ() != 1 {
		t.Fatalf("derived grids miscount: clone %d", c.NNZ())
	}
	c := g.Clone()
	c.Set(1, 1, 1)
	if g.NNZ() != 1 || c.NNZ() != 2 {
		t.Fatalf("clone shares the memo: %d, %d", g.NNZ(), c.NNZ())
	}
	// A seeded count is served without a scan (the wrong number shows it) and
	// is dropped like a counted one.
	c.SeedNNZ(40)
	if got := c.NNZ(); got != 40 {
		t.Fatalf("NNZ after SeedNNZ(40) = %d", got)
	}
	c.SetBlock(0, 0, NewDense(2, 2))
	if got := c.NNZ(); got != 0 {
		t.Fatalf("NNZ after SeedNNZ and SetBlock = %d, want a fresh count of 0", got)
	}
	c.SeedNNZ(40)
	c.Set(1, 1, 1)
	if got := c.NNZ(); got != 1 {
		t.Fatalf("NNZ after SeedNNZ and Set = %d, want a fresh count of 1", got)
	}
}

// TestGridNNZConcurrent has many goroutines ask an uncounted grid for its
// NNZ at once, the way parallel operators charge FLOPs against a shared
// operand; under -race it pins the memo as race-free.
func TestGridNNZConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := make([]float64, 40*30)
	want := 0
	for i := range data {
		if rng.Intn(3) == 0 {
			data[i] = rng.NormFloat64()
			want++
		}
	}
	for round := 0; round < 20; round++ {
		g := FromDense(40, 30, 7, data)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 5; k++ {
					if got := g.NNZ(); got != want {
						t.Errorf("NNZ = %d, want %d", got, want)
					}
				}
			}()
		}
		wg.Wait()
	}
}
