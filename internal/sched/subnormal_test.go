package sched

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dmac/internal/matrix"
	"dmac/internal/obs"
)

// tinyGrid is randGrid with every value scaled by 2⁻⁵²⁰, so a product of two
// lands in the subnormal range.
func tinyGrid(rng *rand.Rand, rows, cols, bs int, sparsity float64) *matrix.Grid {
	g := randGrid(rng, rows, cols, bs, sparsity)
	for bi := 0; bi < g.BlockRows(); bi++ {
		for bj := 0; bj < g.BlockCols(); bj++ {
			g.SetBlock(bi, bj, g.Block(bi, bj).Scale(0x1p-520))
		}
	}
	return g
}

// flushedCells flushes a dense copy of g's cells and returns it with the
// number of subnormals it held.
func flushedCells(g *matrix.Grid) (*matrix.Grid, int64) {
	d := g.ToDense()
	n := matrix.FlushSubnormals(d)
	return matrix.FromDense(g.Rows(), g.Cols(), g.BlockSize(), d), int64(n)
}

// TestResultRule: every result block a task returns holds no subnormal —
// multiply results of both strategies, plain and transposed, and cell-wise
// results dense, sparse and written in place — and is otherwise the
// unflushed computation's bits, with each subnormal the zero of its sign.
// The executor counts what it flushed, in Flushed and under
// exec.subnormals.flushed, and a cell-wise result's seeded NNZ is a recount.
func TestResultRule(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	e := NewExecutor(3, nil)
	reg := obs.NewRegistry()
	e.SetObserver(nil, reg)
	check := func(label string, got, want *matrix.Grid, flushed int64, before int64) {
		t.Helper()
		if d := matrix.BitDiff(got, want); d != "" {
			t.Fatalf("%s: got vs flushed reference %s", label, d)
		}
		if n := e.Flushed() - before; n != flushed {
			t.Fatalf("%s: executor flushed %d, the reference holds %d subnormals", label, n, flushed)
		}
		if seeded, scan := got.NNZ(), got.Clone().NNZ(); seeded != scan {
			t.Fatalf("%s: NNZ %d, a scan counts %d", label, seeded, scan)
		}
	}
	total := int64(0)
	for _, sparsity := range []float64{1, 0.3} {
		a, b := tinyGrid(rng, 13, 9, 4, sparsity), tinyGrid(rng, 9, 11, 4, 1)
		for _, strategy := range []MulStrategy{InPlace, Buffer} {
			for _, bT := range []bool{false, true} {
				bb := b
				if bT {
					bb = b.Transpose()
				}
				ref, err := matrix.MulGrid(a, b)
				if err != nil {
					t.Fatal(err)
				}
				want, n := flushedCells(ref)
				before := e.Flushed()
				got, err := e.MulTrans(context.Background(), a, bb, false, bT, strategy)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%v sparsity %v bT=%v", strategy, sparsity, bT), got, want, n, before)
				total += n
			}
		}

		mul := &matrix.CellTree{Inputs: 2, Links: []matrix.CellLink{
			{Kind: matrix.LinkBin, BinOp: matrix.OpCellMul, A: matrix.CellInput(0), B: matrix.CellInput(1)}}}
		x, y := tinyGrid(rng, 13, 9, 4, sparsity), tinyGrid(rng, 13, 9, 4, sparsity)
		ref := matrix.NewGridSlots(13, 9, 4)
		for bi := 0; bi < ref.BlockRows(); bi++ {
			for bj := 0; bj < ref.BlockCols(); bj++ {
				blk, err := matrix.Cellwise(matrix.OpCellMul, x.Block(bi, bj), y.Block(bi, bj))
				if err != nil {
					t.Fatal(err)
				}
				ref.SetBlock(bi, bj, blk)
			}
		}
		want, n := flushedCells(ref.Filled())
		for _, overwrite := range []int{-1, 0} {
			xs := x.Clone()
			before := e.Flushed()
			got, err := e.Cells(context.Background(), mul, []*matrix.Grid{xs, y}, overwrite, nil)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("cells sparsity %v overwrite %d", sparsity, overwrite)
			check(label, got, want, n, before)
			if got.Block(0, 0).IsSparse() != (sparsity < 1) {
				t.Fatalf("%s: result sparse=%v", label, got.Block(0, 0).IsSparse())
			}
			if overwrite < 0 && matrix.BitDiff(xs, x) != "" {
				t.Fatalf("%s: an input was written", label)
			}
			total += n
		}
	}
	if total == 0 {
		t.Fatal("no result held a subnormal to flush: the check is vacuous")
	}
	if c := reg.Counter("exec.subnormals.flushed").Value(); c != e.Flushed() || c != total {
		t.Fatalf("exec.subnormals.flushed %d, Flushed %d, references %d", c, e.Flushed(), total)
	}
}
