package matrix

import (
	"fmt"
	"math"
)

// BitDiff compares two grids bit for bit, whatever their block sizes and
// representations: the sign of zero and a NaN's payload count. It returns ""
// when they match, else the shape mismatch or the first differing cell the
// walk meets, as "(i,j): x vs y".
func BitDiff(a, b *Grid) string { return gridDiff(a, b, 0, true) }

// GridEqual reports whether two grids represent the same logical matrix
// within tol, whatever their block sizes and representations. A NaN matches
// only a NaN.
func GridEqual(a, b *Grid, tol float64) bool { return gridDiff(a, b, tol, false) == "" }

// sameCell is the one per-cell rule of every result comparison: under bits
// the IEEE 754 patterns must be equal, otherwise x and y must lie within tol
// of each other or both be NaN.
func sameCell(x, y, tol float64, bits bool) bool {
	if bits {
		return math.Float64bits(x) == math.Float64bits(y)
	}
	if x != x || y != y {
		return x != x && y != y
	}
	return x == y || math.Abs(x-y) <= tol
}

// gridDiff walks the tiles the two block partitions cut the matrix into (a's
// blocks when the block sizes agree) in row-major order, row-major within a
// tile, and returns the first cell that fails sameCell. It reads dense blocks
// in place and densifies a sparse block's tile into one buffer a side, so it
// never holds more than a block a side beyond the grids.
func gridDiff(a, b *Grid, tol float64, bits bool) string {
	if a.rows != b.rows || a.cols != b.cols {
		return fmt.Sprintf("shape %dx%d vs %dx%d", a.rows, a.cols, b.rows, b.cols)
	}
	var bufA, bufB []float64
	for r, h := 0, 0; r < a.rows; r += h {
		h = min(a.rows, (r/a.bs+1)*a.bs, (r/b.bs+1)*b.bs) - r
		for c, w := 0, 0; c < a.cols; c += w {
			w = min(a.cols, (c/a.bs+1)*a.bs, (c/b.bs+1)*b.bs) - c
			va, sa := tileCells(a.Block(r/a.bs, c/a.bs), r%a.bs, c%a.bs, h, w, &bufA)
			vb, sb := tileCells(b.Block(r/b.bs, c/b.bs), r%b.bs, c%b.bs, h, w, &bufB)
			for i := 0; i < h; i++ {
				for j, x := range va[i*sa : i*sa+w] {
					if y := vb[i*sb+j]; !sameCell(x, y, tol, bits) {
						return fmt.Sprintf("(%d,%d): %v vs %v", r+i, c+j, x, y)
					}
				}
			}
		}
	}
	return ""
}

// tileCells returns the h×w cells of blk from (r0, c0) as a row-major view
// and its row stride: a dense block's own data, a sparse block's cells
// written into *buf.
func tileCells(blk Block, r0, c0, h, w int, buf *[]float64) ([]float64, int) {
	if d, ok := blk.(*DenseBlock); ok {
		return d.Data[r0*d.cols+c0:], d.cols
	}
	if cap(*buf) < h*w {
		*buf = make([]float64, h*w)
	}
	out := (*buf)[:h*w]
	for i := 0; i < h; i++ {
		for j := 0; j < w; j++ {
			out[i*w+j] = blk.At(r0+i, c0+j)
		}
	}
	return out, w
}
