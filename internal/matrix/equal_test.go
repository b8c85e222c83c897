package matrix

import (
	"math"
	"testing"
)

// bitDiff and near are the one comparison over two blocks, each seen as a
// grid of one block.
func bitDiff(a, b Block) string { return gridDiff(oneBlock(a), oneBlock(b), 0, true) }

func near(a, b Block, tol float64) bool { return gridDiff(oneBlock(a), oneBlock(b), tol, false) == "" }

func oneBlock(b Block) *Grid {
	return &Grid{rows: b.Rows(), cols: b.Cols(), bs: max(b.Rows(), b.Cols(), 1), brows: 1, bcols: 1, blocks: []Block{b}}
}

// TestGridComparison holds GridEqual and BitDiff to the per-cell rule on NaN,
// the sign of zero and infinities, and their walk to a shape mismatch, one
// matrix cut at two block sizes or stored dense and sparse, and the cell it
// reports. The matrix is 5×7; its cells (1,5) and (2,0) are set per case.
func TestGridComparison(t *testing.T) {
	const rows, cols = 5, 7
	cells := func(v ...float64) []float64 {
		d := make([]float64, rows*cols)
		for k := range d {
			if k%3 != 0 {
				d[k] = float64(k) / 8
			}
		}
		for i, x := range v {
			d[[]int{12, 14}[i]] = x // cells (1,5) and (2,0)
		}
		return d
	}
	dense := func(bs int, v ...float64) *Grid { return FromDense(rows, cols, bs, cells(v...)) }
	sparse := func(bs int) *Grid {
		var cs []Coord
		for k, v := range cells() {
			if v != 0 {
				cs = append(cs, Coord{Row: k / cols, Col: k % cols, Val: v})
			}
		}
		return FromCoords(rows, cols, bs, cs)
	}
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	inf := math.Inf(1)
	for _, c := range []struct {
		name string
		a, b *Grid
		tol  bool   // GridEqual(a, b, 1e-9), either way round
		bits string // BitDiff(a, b)
	}{
		{"NaN vs 1", dense(3, nan1), dense(3, 1), false, "(1,5): NaN vs 1"},
		{"1 vs NaN", dense(3, 1), dense(3, nan1), false, "(1,5): 1 vs NaN"},
		{"NaN vs NaN, same payload", dense(3, nan1), dense(3, nan1), true, ""},
		{"NaN vs NaN, other payload", dense(3, nan1), dense(3, nan2), true, "(1,5): NaN vs NaN"},
		{"-0 vs +0", dense(3, math.Copysign(0, -1)), dense(3, 0), true, "(1,5): -0 vs 0"},
		{"+Inf", dense(3, inf), dense(3, inf), true, ""},
		{"-Inf", dense(3, -inf), dense(3, -inf), true, ""},
		{"+Inf vs -Inf", dense(3, inf), dense(3, -inf), false, "(1,5): +Inf vs -Inf"},
		{"within tol", dense(3, 1), dense(3, 1+1e-12), true, "(1,5): 1 vs 1.000000000001"},
		{"beyond tol", dense(3, 1), dense(3, 1.001), false, "(1,5): 1 vs 1.001"},
		{"shape", dense(3), NewDenseGrid(cols, rows, 3), false, "shape 5x7 vs 7x5"},
		{"two block sizes", dense(3), dense(2), true, ""},
		{"dense vs sparse", dense(3), sparse(3), true, ""},
		{"dense vs sparse, two block sizes", dense(4), sparse(3), true, ""},
		{"sparse vs sparse, two block sizes", sparse(2), sparse(5), true, ""},
		{"first differing cell", dense(3, 2, 2), sparse(2), false, "(1,5): 2 vs 0"},
		{"first differing cell, later tile", dense(3, 0, 7), sparse(2), false, "(2,0): 7 vs 1.75"},
	} {
		if GridEqual(c.a, c.b, 1e-9) != c.tol || GridEqual(c.b, c.a, 1e-9) != c.tol {
			t.Errorf("%s: GridEqual = %v, want %v", c.name, !c.tol, c.tol)
		}
		if got := BitDiff(c.a, c.b); got != c.bits {
			t.Errorf("%s: BitDiff = %q, want %q", c.name, got, c.bits)
		}
	}
	// The walk reads dense blocks in place and densifies one tile a side.
	a, b, s := dense(3), dense(2), sparse(2)
	if n := testing.AllocsPerRun(10, func() { BitDiff(a, b) }); n != 0 {
		t.Errorf("dense vs dense: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { GridEqual(a, s, 1e-9) }); n != 1 {
		t.Errorf("dense vs sparse: %v allocations, want 1 (one tile)", n)
	}
}
