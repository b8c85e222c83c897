package matrix

import "fmt"

// DenseBlock is a dense sub-matrix stored as a row-major float64 array
// (Section 5.3: "a one-dimensional array is used for dense block").
type DenseBlock struct {
	rows, cols int
	// Data holds the elements in row-major order; Data[i*cols+j] is (i, j).
	// It is exported read-only: kernels in this package may mutate it, other
	// packages must treat it as immutable unless they own the block.
	Data []float64
}

// NewDense returns a zeroed rows x cols dense block.
func NewDense(rows, cols int) *DenseBlock {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimensions %dx%d", rows, cols))
	}
	return &DenseBlock{rows: rows, cols: cols, Data: make([]float64, rows*cols)}
}

// NewDenseData wraps an existing row-major slice as a dense block. The slice
// is used directly (not copied); len(data) must equal rows*cols.
func NewDenseData(rows, cols int, data []float64) *DenseBlock {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("matrix: data length %d != %d*%d", len(data), rows, cols))
	}
	return &DenseBlock{rows: rows, cols: cols, Data: data}
}

// Rows returns the number of rows.
func (d *DenseBlock) Rows() int { return d.rows }

// Cols returns the number of columns.
func (d *DenseBlock) Cols() int { return d.cols }

// At returns the element at (i, j).
func (d *DenseBlock) At(i, j int) float64 { return d.Data[i*d.cols+j] }

// Set stores v at (i, j). The caller must own the block.
func (d *DenseBlock) Set(i, j int, v float64) { d.Data[i*d.cols+j] = v }

// NNZ counts the non-zero elements by scanning the data.
func (d *DenseBlock) NNZ() int { return int(countNonZero(d.Data)) }

// MemBytes implements the dense branch of the paper's block memory model.
func (d *DenseBlock) MemBytes() int64 { return DenseMemBytes(d.rows, d.cols) }

// IsSparse reports false for dense blocks.
func (d *DenseBlock) IsSparse() bool { return false }

// Dense returns the receiver.
func (d *DenseBlock) Dense() *DenseBlock { return d }

// Transpose returns a new dense block that is the transpose of d.
func (d *DenseBlock) Transpose() Block {
	t := NewDense(d.cols, d.rows)
	d.TransposeInto(t)
	return t
}

// TransposeInto writes the transpose of d into t, which must be d.Cols() x
// d.Rows(); every element of t is written.
func (d *DenseBlock) TransposeInto(t *DenseBlock) {
	for i := 0; i < d.rows; i++ {
		row := d.Data[i*d.cols : (i+1)*d.cols]
		for j, v := range row {
			t.Data[j*d.rows+i] = v
		}
	}
}

// Clone returns a deep copy of d.
func (d *DenseBlock) Clone() Block {
	data := make([]float64, len(d.Data))
	copy(data, d.Data)
	return &DenseBlock{rows: d.rows, cols: d.cols, Data: data}
}

// Scale returns a new block with every element multiplied by alpha.
func (d *DenseBlock) Scale(alpha float64) Block {
	out := NewDense(d.rows, d.cols)
	for i, v := range d.Data {
		out.Data[i] = v * alpha
	}
	return out
}

// Zero resets all elements to 0, for callers that reuse a block as an
// accumulator: the executor's result buffer pool clears a recycled block
// with it before a product accumulates into it.
func (d *DenseBlock) Zero() {
	clear(d.Data)
}

// Sum returns the sum of all elements.
func (d *DenseBlock) Sum() float64 {
	s := 0.0
	for _, v := range d.Data {
		s += v
	}
	return s
}
