package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"dmac/internal/matrix"
)

func randGrid(rng *rand.Rand, rows, cols, bs int, sparsity float64) *matrix.Grid {
	if sparsity >= 1 {
		data := make([]float64, rows*cols)
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		return matrix.FromDense(rows, cols, bs, data)
	}
	var coords []matrix.Coord
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < sparsity {
				coords = append(coords, matrix.Coord{Row: i, Col: j, Val: rng.NormFloat64()})
			}
		}
	}
	return matrix.FromCoords(rows, cols, bs, coords)
}

func TestForEachRunsAllTasksOnce(t *testing.T) {
	e := NewExecutor(4, nil)
	const n = 1000
	var counts [n]atomic.Int32
	e.ForEach(n, func(i int) { counts[i].Add(1) })
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("task %d ran %d times", i, got)
		}
	}
	// n = 0 and single-thread paths must not hang.
	e.ForEach(0, func(int) { t.Error("task ran for n=0") })
	one := NewExecutor(1, nil)
	ran := 0
	one.ForEach(3, func(int) { ran++ })
	if ran != 3 {
		t.Errorf("single-thread ForEach ran %d, want 3", ran)
	}
}

func TestMulStrategiesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	a := randGrid(rng, 23, 17, 5, 0.3)
	b := randGrid(rng, 17, 19, 5, 1)
	want, err := matrix.MulGrid(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []MulStrategy{InPlace, Buffer} {
		e := NewExecutor(4, nil)
		got, err := e.MulTrans(context.Background(), a, b, false, false, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !matrix.GridEqual(got, want, 1e-9) {
			t.Errorf("%v result differs from reference", s)
		}
	}
}

func TestMulErrors(t *testing.T) {
	e := NewExecutor(2, nil)
	if _, err := e.MulTrans(context.Background(), matrix.NewDenseGrid(2, 3, 2), matrix.NewDenseGrid(2, 3, 2), false, false, InPlace); err == nil {
		t.Error("expected inner-dimension error")
	}
	if _, err := e.MulTrans(context.Background(), matrix.NewDenseGrid(2, 3, 2), matrix.NewDenseGrid(3, 2, 3), false, false, InPlace); err == nil {
		t.Error("expected block-size error")
	}
	if _, err := e.MulTrans(context.Background(), matrix.NewDenseGrid(2, 3, 2), matrix.NewDenseGrid(3, 2, 2), false, false, MulStrategy(42)); err == nil {
		t.Error("expected unknown-strategy error")
	}
}

func TestInPlaceUsesLessPeakMemoryThanBuffer(t *testing.T) {
	// A multiplication with a large inner block dimension: Buffer keeps
	// brows*inner*bcols intermediates alive, In-Place only ~L.
	rng := rand.New(rand.NewSource(31))
	a := randGrid(rng, 40, 120, 8, 0.2)
	b := randGrid(rng, 120, 40, 8, 0.2)

	memIP := NewMemTracker()
	eIP := NewExecutor(2, memIP)
	if _, err := eIP.MulTrans(context.Background(), a, b, false, false, InPlace); err != nil {
		t.Fatal(err)
	}
	memBuf := NewMemTracker()
	eBuf := NewExecutor(2, memBuf)
	if _, err := eBuf.MulTrans(context.Background(), a, b, false, false, Buffer); err != nil {
		t.Fatal(err)
	}
	if memIP.Peak() >= memBuf.Peak() {
		t.Errorf("In-Place peak %d >= Buffer peak %d; expected strictly less", memIP.Peak(), memBuf.Peak())
	}
}

func TestCellwiseAndScalarParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := randGrid(rng, 15, 15, 4, 1)
	b := randGrid(rng, 15, 15, 4, 1)
	e := NewExecutor(4, nil)
	mul := &matrix.CellTree{Inputs: 2, Links: []matrix.CellLink{
		{Kind: matrix.LinkBin, BinOp: matrix.OpCellMul, A: matrix.CellInput(0), B: matrix.CellInput(1)}}}
	got, _, err := e.Cells(context.Background(), mul, []*matrix.Grid{a, b}, -1)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := matrix.CellwiseGrid(matrix.OpCellMul, a, b)
	if matrix.BitDiff(got, want) != "" {
		t.Error("parallel cellwise differs from sequential")
	}
	if _, _, err := e.Cells(context.Background(), mul, []*matrix.Grid{a, matrix.NewDenseGrid(15, 14, 4)}, -1); !errors.Is(err, matrix.ErrShape) {
		t.Errorf("mismatched shapes: %v, want ErrShape", err)
	}
	if _, _, err := e.Cells(context.Background(), mul, []*matrix.Grid{a, matrix.NewDenseGrid(15, 15, 5)}, -1); !errors.Is(err, matrix.ErrShape) {
		t.Errorf("mismatched block sizes: %v, want ErrShape", err)
	}
	if _, _, err := e.Cells(context.Background(), mul, []*matrix.Grid{a}, -1); !errors.Is(err, matrix.ErrShape) {
		t.Errorf("missing input: %v, want ErrShape", err)
	}
	triple := &matrix.CellTree{Inputs: 1, Links: []matrix.CellLink{
		{Kind: matrix.LinkScalar, ScalarOp: matrix.ScalarMul, Const: 3, A: matrix.CellInput(0)}}}
	sc, nnz, err := e.Cells(context.Background(), triple, []*matrix.Grid{a}, -1)
	if err != nil {
		t.Fatal(err)
	}
	wantSc := matrix.ScalarGrid(matrix.ScalarMul, a, 3)
	if matrix.BitDiff(sc, wantSc) != "" {
		t.Error("parallel scalar differs from sequential")
	}
	if nnz[0] != int64(a.NNZ()) {
		t.Errorf("scalar link read %d stored elements, the grid holds %d", nnz[0], a.NNZ())
	}
	named := &matrix.CellTree{Inputs: 1, Links: []matrix.CellLink{
		{Kind: matrix.LinkScalar, ScalarOp: matrix.ScalarMul, Param: "alpha", A: matrix.CellInput(0)}}}
	if _, _, err := e.Cells(context.Background(), named, []*matrix.Grid{a}, -1); err == nil {
		t.Error("an unbound parameter must fail")
	}
}

// TestCellsOverwrite: the result lands in the blocks of the licensed input
// where they are dense and in fresh blocks where they are not, is the same
// either way, and no other input is touched.
func TestCellsOverwrite(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	tree := &matrix.CellTree{Inputs: 3, Links: []matrix.CellLink{
		{Kind: matrix.LinkBin, BinOp: matrix.OpCellMul, A: matrix.CellInput(0), B: matrix.CellInput(1)},
		{Kind: matrix.LinkBin, BinOp: matrix.OpCellDiv, A: matrix.CellValue(0), B: matrix.CellInput(2)},
	}}
	mem := NewMemTracker()
	e := NewExecutor(3, mem)
	for _, mixed := range []bool{false, true} {
		a, b := randGrid(rng, 15, 11, 4, 1), randGrid(rng, 15, 11, 4, 1)
		target := randGrid(rng, 15, 11, 4, 1)
		if mixed {
			sp := randGrid(rng, 15, 11, 4, 0.3)
			target.SetBlock(0, 0, sp.Block(0, 0))
			target.SetBlock(3, 2, sp.Block(3, 2))
		}
		keepA, keepTarget := a.Clone(), target.Clone()
		want, _, err := e.Cells(context.Background(), tree, []*matrix.Grid{a, b, target}, -1)
		if err != nil {
			t.Fatal(err)
		}
		if matrix.BitDiff(target, keepTarget) != "" {
			t.Fatal("an evaluation without a licence wrote an input")
		}
		memBefore := mem.Current()
		got, _, err := e.Cells(context.Background(), tree, []*matrix.Grid{a, b, target}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if d := matrix.BitDiff(got, want); d != "" {
			t.Fatalf("mixed=%v: in place vs fresh %s", mixed, d)
		}
		for bi := 0; bi < got.BlockRows(); bi++ {
			for bj := 0; bj < got.BlockCols(); bj++ {
				reused := got.Block(bi, bj) == target.Block(bi, bj)
				if dense := !keepTarget.Block(bi, bj).IsSparse(); reused != dense {
					t.Errorf("mixed=%v block (%d,%d): reused=%v, input dense=%v", mixed, bi, bj, reused, dense)
				}
			}
		}
		if !mixed && mem.Current() != memBefore {
			t.Errorf("in-place evaluation accounted %d new bytes", mem.Current()-memBefore)
		}
		if matrix.BitDiff(a, keepA) != "" {
			t.Error("in-place evaluation wrote an input it had no licence for")
		}
		if got.NNZ() != want.NNZ() {
			t.Errorf("seeded NNZ %d in place, %d fresh", got.NNZ(), want.NNZ())
		}
	}
}

// TestCellsSeedsNNZ: the count the block tasks seed into the result is the
// count a scan finds — dense, sparse, mixed and ragged grids, results that
// stay sparse and results that densify — and a later SetBlock drops it.
func TestCellsSeedsNNZ(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	abs := &matrix.CellTree{Inputs: 1, Links: []matrix.CellLink{
		{Kind: matrix.LinkFunc, UFunc: matrix.FuncAbs, A: matrix.CellInput(0)}}}
	prodPlus := &matrix.CellTree{Inputs: 2, Links: []matrix.CellLink{
		{Kind: matrix.LinkBin, BinOp: matrix.OpCellMul, A: matrix.CellInput(0), B: matrix.CellInput(1)},
		{Kind: matrix.LinkScalar, ScalarOp: matrix.ScalarAdd, Const: 1, A: matrix.CellValue(0)},
		{Kind: matrix.LinkFunc, UFunc: matrix.FuncSign, A: matrix.CellValue(1)}}}
	e := NewExecutor(3, nil)
	for _, shape := range [][3]int{{16, 16, 4}, {15, 11, 4}, {1, 37, 8}, {9, 9, 16}} {
		rows, cols, bs := shape[0], shape[1], shape[2]
		for _, sparsity := range []float64{1, 0.4, 0.02} {
			a, b := randGrid(rng, rows, cols, bs, sparsity), randGrid(rng, rows, cols, bs, 0.5)
			if sparsity < 1 {
				a.SetBlock(0, 0, a.Block(0, 0).Dense()) // one dense block among the sparse
			}
			for name, run := range map[string]func() (*matrix.Grid, []int64, error){
				"abs": func() (*matrix.Grid, []int64, error) {
					return e.Cells(context.Background(), abs, []*matrix.Grid{a}, -1)
				},
				"sign(a*b+1)": func() (*matrix.Grid, []int64, error) {
					return e.Cells(context.Background(), prodPlus, []*matrix.Grid{a, b}, -1)
				},
				"sign(a*a+1)!": func() (*matrix.Grid, []int64, error) {
					return e.Cells(context.Background(), prodPlus, []*matrix.Grid{a.Clone(), a}, 0)
				},
			} {
				got, _, err := run()
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s on %dx%d/bs=%d sparsity %v", name, rows, cols, bs, sparsity)
				if seeded, scan := got.NNZ(), got.Clone().NNZ(); seeded != scan {
					t.Errorf("%s: seeded NNZ %d, a scan counts %d", label, seeded, scan)
				}
				r, c := got.BlockDims(0, 0)
				got.SetBlock(0, 0, matrix.NewCSCEmpty(r, c))
				if after, scan := got.NNZ(), got.Clone().NNZ(); after != scan {
					t.Errorf("%s: NNZ %d after SetBlock, a scan counts %d", label, after, scan)
				}
			}
		}
	}
}

func TestTransposeParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := randGrid(rng, 21, 13, 4, 0.3)
	e := NewExecutor(4, nil)
	got := e.Transpose(context.Background(), a)
	if matrix.BitDiff(got, a.Transpose()) != "" {
		t.Error("parallel transpose differs from sequential")
	}
}

func TestMemTracker(t *testing.T) {
	m := NewMemTracker()
	m.Add(100)
	m.Add(50)
	if m.Current() != 150 || m.Peak() != 150 {
		t.Fatalf("cur=%d peak=%d", m.Current(), m.Peak())
	}
	m.Sub(100)
	if m.Current() != 50 || m.Peak() != 150 {
		t.Fatalf("after sub: cur=%d peak=%d", m.Current(), m.Peak())
	}
	m.Add(10)
	if m.Peak() != 150 {
		t.Fatal("peak should not move below previous high-water mark")
	}
	m.Reset()
	if m.Current() != 0 || m.Peak() != 0 {
		t.Fatal("Reset did not zero tracker")
	}
}

func TestMemTrackerConcurrentPeak(t *testing.T) {
	m := NewMemTracker()
	e := NewExecutor(8, nil)
	e.ForEach(1000, func(int) {
		m.Add(10)
		m.Sub(10)
	})
	if m.Current() != 0 {
		t.Errorf("current = %d, want 0", m.Current())
	}
	if m.Peak() < 10 {
		t.Errorf("peak = %d, want >= 10", m.Peak())
	}
}

func TestChooseBlockSizeEq3(t *testing.T) {
	// Paper example (Section 6.3): 4-node cluster, K=4, L=8. For
	// LiveJournal-sized square matrices (~4.85M nodes) the threshold is
	// about 856k.
	n := 4847571
	got := ChooseBlockSize(n, n, 8, 4)
	if got < 800000 || got > 900000 {
		t.Errorf("ChooseBlockSize = %d, want ~856k", got)
	}
	// soc-pokec: ~1.63M nodes -> ~289k.
	n = 1632803
	got = ChooseBlockSize(n, n, 8, 4)
	if got < 270000 || got > 300000 {
		t.Errorf("ChooseBlockSize = %d, want ~289k", got)
	}
	// Degenerate inputs.
	if ChooseBlockSize(0, 5, 1, 1) != 1 {
		t.Error("zero rows should give 1")
	}
	if got := ChooseBlockSize(3, 3, 1, 1); got > 3 {
		t.Errorf("block size %d exceeds matrix dimension", got)
	}
	if got := ChooseBlockSize(10, 10, 0, 0); got < 1 {
		t.Errorf("non-positive parallelism handled wrong: %d", got)
	}
}

// Property: the chosen block size never exceeds the Eq. 3 bound (when the
// bound is at least 1) and is always positive.
func TestQuickChooseBlockSizeWithinBound(t *testing.T) {
	f := func(rRaw, cRaw uint16, lRaw, kRaw uint8) bool {
		rows, cols := int(rRaw)%5000+1, int(cRaw)%5000+1
		l, k := int(lRaw)%16+1, int(kRaw)%32+1
		m := ChooseBlockSize(rows, cols, l, k)
		if m < 1 {
			return false
		}
		bound := BlockSizeBound(rows, cols, l, k)
		if bound >= 1 && float64(m) > bound {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: both local strategies agree with each other on random inputs.
func TestQuickStrategiesAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m, p := 1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(20)
		bs := 1 + rng.Intn(7)
		a := randGrid(rng, n, m, bs, 0.5)
		b := randGrid(rng, m, p, bs, 0.5)
		e := NewExecutor(3, nil)
		r1, err := e.MulTrans(context.Background(), a, b, false, false, InPlace)
		if err != nil {
			return false
		}
		r2, err := e.MulTrans(context.Background(), a, b, false, false, Buffer)
		if err != nil {
			return false
		}
		return matrix.GridEqual(r1, r2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMulStrategyString(t *testing.T) {
	if InPlace.String() != "in-place" || Buffer.String() != "buffer" {
		t.Error("strategy names wrong")
	}
	if MulStrategy(9).String() == "" {
		t.Error("unknown strategy must still print")
	}
}
