package matrix

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// CSCBlock is a sparse sub-matrix in Compressed Sparse Column format
// (Section 5.3, Figure 5). Three arrays represent the block: ColPtr[j] is
// the offset in RowIdx/Values where column j starts, RowIdx holds the row
// index of each stored element, and Values holds the element values. Stored
// elements within a column are ordered by row index.
//
// A CSC block is immutable once built: its arrays are written only by the
// code that makes it (NewCSC, Transpose, Clone, Scale, the sparse Cellwise
// and Scalar) before the block is handed out, and never after its first
// product. So the row layout a product derives from it (rowLayout) is built
// once and kept with the block, and a block made from another starts
// without one.
type CSCBlock struct {
	rows, cols int
	// ColPtr has cols+1 entries; column j occupies [ColPtr[j], ColPtr[j+1]).
	ColPtr []int32
	// RowIdx holds the row index of each stored element.
	RowIdx []int32
	// Values holds the stored element values.
	Values []float64

	// byRow is the row layout for the panel width last asked for, nil until
	// a product asks; rowMu serialises its builds.
	byRow atomic.Pointer[rowLayout]
	rowMu sync.Mutex
}

// rowLayout is a CSC block's stored entries laid out by rows, a panel of
// stored columns at a time: in panel q, the columns [q*panel,
// min(cols, (q+1)*panel)), row k holds (col[x], val[x]) for x in
// [ptr[k], ptr[k+1]) of ptr = rowPtr(q), in ascending column — the order in
// which a sweep over the panel's stored columns meets them — with columns
// counted from the panel's first. A panel's entries occupy the positions its
// columns' entries occupy in the block, so col and val hold NNZ elements and
// ptr rows+1 a panel: NNZ*12 + panels*(rows+1)*4 bytes, which MemBytes (the
// paper's model of the block) leaves out, as it leaves out kernel scratch.
type rowLayout struct {
	panel, rows int
	ptr, col    []int32
	val         []float64
}

// rowPtr returns the row pointers of panel q.
func (l *rowLayout) rowPtr(q int) []int32 { return l.ptr[q*(l.rows+1):][:l.rows+1] }

// testRowLayoutBuilt, when set by a test, is called on every layout build.
var testRowLayoutBuilt func()

// rowLayout returns s laid out by rows in panels of panel >= 1 columns. It is
// built on first use, once however many block tasks ask at the same time,
// and again only when a product asks for another panel width, which then
// replaces it.
func (s *CSCBlock) rowLayout(panel int) *rowLayout {
	if l := s.byRow.Load(); l != nil && l.panel == panel {
		return l
	}
	s.rowMu.Lock()
	defer s.rowMu.Unlock()
	l := s.byRow.Load()
	if l == nil || l.panel != panel {
		l = newRowLayout(s, panel)
		s.byRow.Store(l)
	}
	return l
}

// newRowLayout lays s out by rows in panels of panel columns, in arrays of
// their exact size: per panel one counting pass over its row indices and one
// fill pass over its entries, backwards, so that each row fills from its end
// and lists its entries in ascending column.
func newRowLayout(s *CSCBlock, panel int) *rowLayout {
	if testRowLayoutBuilt != nil {
		testRowLayoutBuilt()
	}
	m, panels := s.rows, (s.cols+panel-1)/panel
	l := &rowLayout{
		panel: panel,
		rows:  m,
		ptr:   make([]int32, panels*(m+1)),
		col:   make([]int32, len(s.RowIdx)),
		val:   make([]float64, len(s.Values)),
	}
	for q := 0; q < panels; q++ {
		c0, c1 := q*panel, min(s.cols, (q+1)*panel)
		lo, hi := s.ColPtr[c0], s.ColPtr[c1]
		// ptr[k] counts row k's entries, the prefix sum makes it the end of
		// row k, and the fill walks it down to the row's start.
		ptr := l.rowPtr(q)
		for _, k := range s.RowIdx[lo:hi] {
			ptr[k]++
		}
		end := lo
		for k, c := range ptr[:m] {
			end += c
			ptr[k] = end
		}
		ptr[m] = hi
		for j := c1 - 1; j >= c0; j-- {
			for idx := s.ColPtr[j+1] - 1; idx >= s.ColPtr[j]; idx-- {
				k := s.RowIdx[idx]
				x := ptr[k] - 1
				ptr[k] = x
				l.col[x], l.val[x] = int32(j-c0), s.Values[idx]
			}
		}
	}
	return l
}

// Coord is a single (row, col, value) entry, used to build sparse blocks.
type Coord struct {
	Row, Col int
	Val      float64
}

// NewCSC builds a CSC block from unordered coordinates. Zero-valued
// coordinates are kept (callers that want them dropped should filter first);
// this keeps the builder deterministic. Duplicate (row, col) pairs are summed
// in the order coords lists them: first + second, then + third, and so on.
//
// The build is two stable counting passes over the coordinates, by row and
// then by column, so it costs O(len(coords) + rows + cols) whatever their
// order and writes RowIdx and Values at their final size.
func NewCSC(rows, cols int, coords []Coord) *CSCBlock {
	b := &CSCBlock{rows: rows, cols: cols, ColPtr: make([]int32, cols+1)}
	if len(coords) == 0 {
		return b
	}
	// Scratch: the fill cursor of every row and of every column, and the
	// coordinates' positions in row order.
	ip := spIndexPools.get(rows + 1 + cols + len(coords))
	defer spIndexPools.put(ip)
	rowNext, colNext, byRow := (*ip)[:rows+1], (*ip)[rows+1:rows+1+cols], (*ip)[rows+1+cols:]
	clear(rowNext)
	for _, c := range coords {
		if c.Row < 0 || c.Row >= rows || c.Col < 0 || c.Col >= cols {
			panic(fmt.Sprintf("matrix: coord (%d,%d) outside %dx%d block", c.Row, c.Col, rows, cols))
		}
		rowNext[c.Row+1]++
		b.ColPtr[c.Col+1]++
	}
	for r := 0; r < rows; r++ {
		rowNext[r+1] += rowNext[r]
	}
	for c := 0; c < cols; c++ {
		b.ColPtr[c+1] += b.ColPtr[c]
	}
	copy(colNext, b.ColPtr)
	for i, c := range coords {
		byRow[rowNext[c.Row]] = int32(i)
		rowNext[c.Row]++
	}
	// In row order, the entry a column received last has the largest row so
	// far: the same row again is the same cell again, in input order.
	b.RowIdx = make([]int32, len(coords))
	b.Values = make([]float64, len(coords))
	dups := 0
	for _, i := range byRow {
		c := coords[i]
		x := colNext[c.Col]
		if x > b.ColPtr[c.Col] && b.RowIdx[x-1] == int32(c.Row) {
			b.Values[x-1] += c.Val
			dups++
			continue
		}
		b.RowIdx[x], b.Values[x] = int32(c.Row), c.Val
		colNext[c.Col] = x + 1
	}
	if dups > 0 {
		b.closeGaps(colNext, len(coords)-dups)
	}
	return b
}

// NewCSCData wraps existing CSC arrays as a rows x cols block; they are used
// directly, not copied, and the block owns them from then on. colPtr must
// hold cols+1 non-decreasing offsets from 0 to len(rowIdx) == len(values),
// and each column's row indices must be in [0, rows) and increasing.
func NewCSCData(rows, cols int, colPtr, rowIdx []int32, values []float64) *CSCBlock {
	if len(colPtr) != cols+1 || int(colPtr[cols]) != len(rowIdx) || len(rowIdx) != len(values) {
		panic(fmt.Sprintf("matrix: CSC arrays of %d column pointers, %d row indices and %d values for %d columns", len(colPtr), len(rowIdx), len(values), cols))
	}
	return &CSCBlock{rows: rows, cols: cols, ColPtr: colPtr, RowIdx: rowIdx, Values: values}
}

// closeGaps finishes a build in which duplicates left column j holding
// [ColPtr[j], end[j]) of its reserved range, n entries in all: the columns
// are moved together into exactly-sized arrays.
func (s *CSCBlock) closeGaps(end []int32, n int) {
	rowIdx, values := make([]int32, 0, n), make([]float64, 0, n)
	for j, e := range end {
		lo := s.ColPtr[j]
		s.ColPtr[j] = int32(len(rowIdx))
		rowIdx = append(rowIdx, s.RowIdx[lo:e]...)
		values = append(values, s.Values[lo:e]...)
	}
	s.ColPtr[s.cols] = int32(n)
	s.RowIdx, s.Values = rowIdx, values
}

// NewCSCEmpty returns an all-zero sparse block.
func NewCSCEmpty(rows, cols int) *CSCBlock {
	return &CSCBlock{rows: rows, cols: cols, ColPtr: make([]int32, cols+1)}
}

// Rows returns the number of rows.
func (s *CSCBlock) Rows() int { return s.rows }

// Cols returns the number of columns.
func (s *CSCBlock) Cols() int { return s.cols }

// NNZ returns the number of stored elements.
func (s *CSCBlock) NNZ() int { return len(s.Values) }

// At returns the element at (i, j) using binary search within column j.
func (s *CSCBlock) At(i, j int) float64 {
	if i < 0 || i >= s.rows || j < 0 || j >= s.cols {
		panic(fmt.Sprintf("matrix: At(%d,%d) outside %dx%d block", i, j, s.rows, s.cols))
	}
	lo, hi := int(s.ColPtr[j]), int(s.ColPtr[j+1])
	k := lo + sort.Search(hi-lo, func(k int) bool { return s.RowIdx[lo+k] >= int32(i) })
	if k < hi && s.RowIdx[k] == int32(i) {
		return s.Values[k]
	}
	return 0
}

// MemBytes implements the sparse branch of the paper's block memory model.
func (s *CSCBlock) MemBytes() int64 { return SparseMemBytes(s.cols, s.NNZ()) }

// IsSparse reports true for CSC blocks.
func (s *CSCBlock) IsSparse() bool { return true }

// Dense returns a dense copy of the block.
func (s *CSCBlock) Dense() *DenseBlock {
	d := NewDense(s.rows, s.cols)
	for j := 0; j < s.cols; j++ {
		for k := s.ColPtr[j]; k < s.ColPtr[j+1]; k++ {
			d.Data[int(s.RowIdx[k])*s.cols+j] = s.Values[k]
		}
	}
	return d
}

// Transpose returns the CSC transpose. Transposing CSC yields the CSR view
// of the same data, which is re-compressed into CSC of the flipped shape via
// a counting pass (O(nnz + rows)).
func (s *CSCBlock) Transpose() Block {
	t := &CSCBlock{
		rows:   s.cols,
		cols:   s.rows,
		ColPtr: make([]int32, s.rows+1),
		RowIdx: make([]int32, len(s.RowIdx)),
		Values: make([]float64, len(s.Values)),
	}
	// Count entries per original row (= per transposed column).
	for _, r := range s.RowIdx {
		t.ColPtr[r+1]++
	}
	for i := 0; i < s.rows; i++ {
		t.ColPtr[i+1] += t.ColPtr[i]
	}
	next := make([]int32, s.rows)
	copy(next, t.ColPtr[:s.rows])
	for j := 0; j < s.cols; j++ {
		for k := s.ColPtr[j]; k < s.ColPtr[j+1]; k++ {
			r := s.RowIdx[k]
			pos := next[r]
			next[r]++
			t.RowIdx[pos] = int32(j)
			t.Values[pos] = s.Values[k]
		}
	}
	return t
}

// Clone returns a deep copy of s.
func (s *CSCBlock) Clone() Block {
	c := &CSCBlock{
		rows:   s.rows,
		cols:   s.cols,
		ColPtr: make([]int32, len(s.ColPtr)),
		RowIdx: make([]int32, len(s.RowIdx)),
		Values: make([]float64, len(s.Values)),
	}
	copy(c.ColPtr, s.ColPtr)
	copy(c.RowIdx, s.RowIdx)
	copy(c.Values, s.Values)
	return c
}

// Scale returns a new sparse block with every stored element multiplied by
// alpha.
func (s *CSCBlock) Scale(alpha float64) Block {
	c := s.Clone().(*CSCBlock)
	for i := range c.Values {
		c.Values[i] *= alpha
	}
	return c
}

// Sum returns the sum of all stored elements.
func (s *CSCBlock) Sum() float64 {
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum
}

// EachNZ calls fn for every stored element in column-major order.
func (s *CSCBlock) EachNZ(fn func(i, j int, v float64)) {
	for j := 0; j < s.cols; j++ {
		for k := s.ColPtr[j]; k < s.ColPtr[j+1]; k++ {
			fn(int(s.RowIdx[k]), j, s.Values[k])
		}
	}
}

// Coords returns the stored elements as a coordinate list, in column-major
// order. Useful for re-blocking and for tests.
func (s *CSCBlock) Coords() []Coord {
	out := make([]Coord, 0, s.NNZ())
	s.EachNZ(func(i, j int, v float64) { out = append(out, Coord{Row: i, Col: j, Val: v}) })
	return out
}
