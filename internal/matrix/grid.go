package matrix

import (
	"fmt"
	"sync/atomic"
)

// Grid is a logical matrix partitioned into square blocks of side BlockSize
// (trailing blocks are ragged). Grid is the first level of the two-level
// partitioning of Section 5.3: a matrix is split into blocks, and the
// distributed layer places whole blocks on workers according to the matrix's
// partition scheme.
type Grid struct {
	rows, cols int
	bs         int
	brows      int
	bcols      int
	blocks     []Block
	// nnz memoises NNZ() as count+1 (0: not counted yet). Blocks in a grid
	// are immutable apart from SetBlock and Set, which reset it, so the
	// accounting paths that ask for NNZ on every operator scan each dense
	// payload once per grid instead of once per call.
	nnz atomic.Int64
}

// NewGrid creates a rows x cols grid with the given block size. All blocks
// start as empty sparse blocks; use SetBlock or the From* constructors to
// fill them.
func NewGrid(rows, cols, blockSize int) *Grid {
	g := NewGridSlots(rows, cols, blockSize)
	for bi := 0; bi < g.brows; bi++ {
		for bj := 0; bj < g.bcols; bj++ {
			r, c := g.BlockDims(bi, bj)
			g.blocks[bi*g.bcols+bj] = NewCSCEmpty(r, c)
		}
	}
	return g
}

// NewGridSlots creates a rows x cols grid whose block slots are still empty,
// for a producer that sets every block itself (SetBlock) and hands the grid
// out through Filled. It spares such a producer the placeholder blocks
// NewGrid would build only for SetBlock to drop.
func NewGridSlots(rows, cols, blockSize int) *Grid {
	if blockSize <= 0 {
		panic(fmt.Sprintf("matrix: non-positive block size %d", blockSize))
	}
	g := &Grid{
		rows:  rows,
		cols:  cols,
		bs:    blockSize,
		brows: blocksFor(rows, blockSize),
		bcols: blocksFor(cols, blockSize),
	}
	g.blocks = make([]Block, g.brows*g.bcols)
	return g
}

// Filled returns g once every block slot holds a block. An empty slot is a
// producer's bug (a NewGridSlots grid with a block never set) and panics
// here, before the grid reaches anyone who reads it.
func (g *Grid) Filled() *Grid {
	for k, b := range g.blocks {
		if b == nil {
			panic(fmt.Sprintf("matrix: block (%d,%d) of a %dx%d grid was never set", k/g.bcols, k%g.bcols, g.rows, g.cols))
		}
	}
	return g
}

// NewDenseGrid creates a grid whose blocks are zeroed dense blocks.
func NewDenseGrid(rows, cols, blockSize int) *Grid {
	g := NewGridSlots(rows, cols, blockSize)
	for bi := 0; bi < g.brows; bi++ {
		for bj := 0; bj < g.bcols; bj++ {
			r, c := g.BlockDims(bi, bj)
			g.blocks[bi*g.bcols+bj] = NewDense(r, c)
		}
	}
	return g
}

// FromDense builds a dense grid from a row-major rows x cols slice, copying
// each row of data into its block row one block-wide segment at a time.
func FromDense(rows, cols, blockSize int, data []float64) *Grid {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("matrix: data length %d != %d*%d", len(data), rows, cols))
	}
	g := NewDenseGrid(rows, cols, blockSize)
	for i := 0; i < rows; i++ {
		row, blocks := data[i*cols:(i+1)*cols], g.blocks[(i/blockSize)*g.bcols:]
		r := i % blockSize
		for bj := 0; bj < g.bcols; bj++ {
			d := blocks[bj].(*DenseBlock)
			copy(d.Data[r*d.cols:(r+1)*d.cols], row[bj*blockSize:])
		}
	}
	return g
}

// FromCoords builds a sparse grid from a coordinate list addressed in global
// (matrix-level) indices. The coordinates are bucketed per block by a count
// and a fill pass, each block's keeping their input order, and every block is
// built by NewCSC.
func FromCoords(rows, cols, blockSize int, coords []Coord) *Grid {
	g := &Grid{
		rows:  rows,
		cols:  cols,
		bs:    blockSize,
		brows: blocksFor(rows, blockSize),
		bcols: blocksFor(cols, blockSize),
	}
	// next[k+1] is the fill cursor of block k into local; after the fill it
	// is the end of block k, the start of block k+1.
	next := make([]int, g.brows*g.bcols+1)
	for _, c := range coords {
		if c.Row < 0 || c.Row >= rows || c.Col < 0 || c.Col >= cols {
			panic(fmt.Sprintf("matrix: coord (%d,%d) outside %dx%d matrix", c.Row, c.Col, rows, cols))
		}
		next[(c.Row/blockSize)*g.bcols+c.Col/blockSize+1]++
	}
	start := 0
	for k := 1; k < len(next); k++ {
		start, next[k] = start+next[k], start
	}
	local := make([]Coord, len(coords))
	for _, c := range coords {
		bi, bj := c.Row/blockSize, c.Col/blockSize
		k := bi*g.bcols + bj + 1
		local[next[k]] = Coord{Row: c.Row - bi*blockSize, Col: c.Col - bj*blockSize, Val: c.Val}
		next[k]++
	}
	g.blocks = make([]Block, g.brows*g.bcols)
	for bi := 0; bi < g.brows; bi++ {
		for bj := 0; bj < g.bcols; bj++ {
			r, c := g.BlockDims(bi, bj)
			k := bi*g.bcols + bj
			g.blocks[k] = NewCSC(r, c, local[next[k]:next[k+1]])
		}
	}
	return g
}

// BlockOf maps each of n row (or column) indices to the block of side
// blockSize it falls in: a table that spares a per-entry division.
func BlockOf(n, blockSize int) []int32 {
	out := make([]int32, n)
	for b := 0; b*blockSize < n; b++ {
		for i := b * blockSize; i < min(n, (b+1)*blockSize); i++ {
			out[i] = int32(b)
		}
	}
	return out
}

// Rows returns the logical row count.
func (g *Grid) Rows() int { return g.rows }

// Cols returns the logical column count.
func (g *Grid) Cols() int { return g.cols }

// BlockSize returns the block side length.
func (g *Grid) BlockSize() int { return g.bs }

// BlockRows returns the number of block rows.
func (g *Grid) BlockRows() int { return g.brows }

// BlockCols returns the number of block columns.
func (g *Grid) BlockCols() int { return g.bcols }

// BlockDims returns the dimensions of block (bi, bj), accounting for ragged
// edge blocks.
func (g *Grid) BlockDims(bi, bj int) (r, c int) {
	r, c = g.bs, g.bs
	if (bi+1)*g.bs > g.rows {
		r = g.rows - bi*g.bs
	}
	if (bj+1)*g.bs > g.cols {
		c = g.cols - bj*g.bs
	}
	return r, c
}

// Block returns the block at block coordinates (bi, bj).
func (g *Grid) Block(bi, bj int) Block { return g.blocks[bi*g.bcols+bj] }

// SetBlock replaces the block at (bi, bj). The block must have the exact
// dimensions reported by BlockDims.
func (g *Grid) SetBlock(bi, bj int, b Block) {
	r, c := g.BlockDims(bi, bj)
	if b.Rows() != r || b.Cols() != c {
		panic(fmt.Sprintf("matrix: block (%d,%d) must be %dx%d, got %dx%d", bi, bj, r, c, b.Rows(), b.Cols()))
	}
	g.blocks[bi*g.bcols+bj] = b
	g.nnz.Store(0)
}

// At returns the element at global coordinates (i, j).
func (g *Grid) At(i, j int) float64 {
	return g.Block(i/g.bs, j/g.bs).At(i%g.bs, j%g.bs)
}

// Set stores v at global coordinates (i, j). The target block must be dense;
// Set panics on a sparse block (sparse grids are built via FromCoords).
func (g *Grid) Set(i, j int, v float64) {
	d, ok := g.Block(i/g.bs, j/g.bs).(*DenseBlock)
	if !ok {
		panic("matrix: Set on a sparse block; rebuild with FromCoords")
	}
	d.Set(i%g.bs, j%g.bs, v)
	g.nnz.Store(0)
}

// NNZ returns the total number of stored non-zero elements. The count is
// memoised until the next SetBlock or Set; code that writes into a block's
// payload behind the grid's back (only legal while it alone holds the grid)
// must do so before the first NNZ call.
func (g *Grid) NNZ() int {
	if v := g.nnz.Load(); v > 0 {
		return int(v - 1)
	}
	n := 0
	for _, b := range g.blocks {
		n += b.NNZ()
	}
	g.nnz.Store(int64(n) + 1)
	return n
}

// SeedNNZ records n as the grid's stored-element count, sparing the first
// NNZ call its scan. It is for a producer that counted the blocks as it wrote
// them, after its last SetBlock; a later SetBlock or Set resets the count
// like any other.
func (g *Grid) SeedNNZ(n int) { g.nnz.Store(int64(n) + 1) }

// MemBytes returns the total block memory footprint.
func (g *Grid) MemBytes() int64 {
	var m int64
	for _, b := range g.blocks {
		m += b.MemBytes()
	}
	return m
}

// TransMemBytes returns the footprint the transposed grid would have if
// materialized; used by lazy transpose views for exact byte accounting.
func (g *Grid) TransMemBytes() int64 {
	var m int64
	for _, b := range g.blocks {
		m += TransMemBytes(b)
	}
	return m
}

// Clone returns a deep copy of the grid.
func (g *Grid) Clone() *Grid {
	out := &Grid{rows: g.rows, cols: g.cols, bs: g.bs, brows: g.brows, bcols: g.bcols}
	out.blocks = make([]Block, len(g.blocks))
	for i, b := range g.blocks {
		out.blocks[i] = b.Clone()
	}
	return out
}

// Transpose returns the grid transpose: the block layout is flipped and
// every block is transposed locally. This is the zero-communication
// transpose that backs the Transpose dependency.
func (g *Grid) Transpose() *Grid {
	out := &Grid{rows: g.cols, cols: g.rows, bs: g.bs, brows: g.bcols, bcols: g.brows}
	out.blocks = make([]Block, len(g.blocks))
	for bi := 0; bi < g.brows; bi++ {
		for bj := 0; bj < g.bcols; bj++ {
			out.blocks[bj*out.bcols+bi] = g.Block(bi, bj).Transpose()
		}
	}
	return out
}

// ToDense materializes the grid as a row-major slice; intended for tests and
// small matrices only.
func (g *Grid) ToDense() []float64 {
	out := make([]float64, g.rows*g.cols)
	for bi := 0; bi < g.brows; bi++ {
		for bj := 0; bj < g.bcols; bj++ {
			b := g.Block(bi, bj)
			r0, c0 := bi*g.bs, bj*g.bs
			switch t := b.(type) {
			case *DenseBlock:
				for i := 0; i < t.rows; i++ {
					copy(out[(r0+i)*g.cols+c0:(r0+i)*g.cols+c0+t.cols], t.Data[i*t.cols:(i+1)*t.cols])
				}
			case *CSCBlock:
				t.EachNZ(func(i, j int, v float64) {
					out[(r0+i)*g.cols+c0+j] = v
				})
			default:
				for i := 0; i < b.Rows(); i++ {
					for j := 0; j < b.Cols(); j++ {
						out[(r0+i)*g.cols+c0+j] = b.At(i, j)
					}
				}
			}
		}
	}
	return out
}

// MulGrid returns the naive sequential product a*b; it is the reference
// implementation used by tests and by the estimator, not the parallel path.
func MulGrid(a, b *Grid) (*Grid, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("%w: %dx%d * %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	if a.bs != b.bs {
		return nil, fmt.Errorf("%w: block sizes %d vs %d", ErrShape, a.bs, b.bs)
	}
	out := NewDenseGrid(a.rows, b.cols, a.bs)
	for bi := 0; bi < a.brows; bi++ {
		for bj := 0; bj < b.bcols; bj++ {
			dst := out.Block(bi, bj).(*DenseBlock)
			for bk := 0; bk < a.bcols; bk++ {
				if err := MulAddTransInto(dst, a.Block(bi, bk), b.Block(bk, bj), false, false); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

// CellwiseGrid applies op element-wise to two grids of identical shape and
// block size.
func CellwiseGrid(op BinOp, a, b *Grid) (*Grid, error) {
	if a.rows != b.rows || a.cols != b.cols || a.bs != b.bs {
		return nil, fmt.Errorf("%w: %dx%d/bs=%d vs %dx%d/bs=%d", ErrShape, a.rows, a.cols, a.bs, b.rows, b.cols, b.bs)
	}
	out := &Grid{rows: a.rows, cols: a.cols, bs: a.bs, brows: a.brows, bcols: a.bcols}
	out.blocks = make([]Block, len(a.blocks))
	for i := range a.blocks {
		blk, err := Cellwise(op, a.blocks[i], b.blocks[i])
		if err != nil {
			return nil, err
		}
		out.blocks[i] = blk
	}
	return out, nil
}

// ScalarGrid applies a block-scalar operation to every block.
func ScalarGrid(op ScalarOp, a *Grid, c float64) *Grid {
	out := &Grid{rows: a.rows, cols: a.cols, bs: a.bs, brows: a.brows, bcols: a.bcols}
	out.blocks = make([]Block, len(a.blocks))
	for i := range a.blocks {
		out.blocks[i] = Scalar(op, a.blocks[i], c)
	}
	return out
}

// SumGrid returns the sum of all elements in the grid.
func SumGrid(g *Grid) float64 {
	s := 0.0
	for _, b := range g.blocks {
		s += Sum(b)
	}
	return s
}

// FrobeniusSqGrid returns the squared Frobenius norm of the grid.
func FrobeniusSqGrid(g *Grid) float64 {
	s := 0.0
	for _, b := range g.blocks {
		s += FrobeniusSq(b)
	}
	return s
}
