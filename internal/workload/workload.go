// Package workload generates the datasets of the paper's evaluation
// (Section 6.1) as deterministic synthetic equivalents:
//
//   - a random sparse matrix generator (d rows, w columns, sparsity s) —
//     the same generator family the paper uses for its scalability study;
//   - a Netflix-shaped ratings matrix (movies x users, integer ratings);
//   - power-law graphs shaped like the four real-world graphs of Table 3
//     (soc-pokec, cit-Patents, LiveJournal, Wikipedia), exposed through a
//     registry that records the original statistics and scales them down.
//
// All generators are seeded and reproducible: the same arguments always
// produce the same matrix.
package workload

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"dmac/internal/matrix"
)

// SparseUniform generates a rows x cols matrix with approximately the given
// sparsity; non-zero positions are uniform, values are uniform in [0.5, 1.5)
// (bounded away from zero so products stay well-conditioned).
func SparseUniform(seed int64, rows, cols, blockSize int, sparsity float64) *matrix.Grid {
	target := int(sparsity * float64(rows) * float64(cols))
	return uniformCells(seed, rows, cols, blockSize, target, func(rng *rand.Rand) float64 { return 0.5 + rng.Float64() })
}

// DenseRandom generates a dense rows x cols matrix with values uniform in
// [0.1, 1.1) (positive, as GNMF factors require), drawn in row-major order
// straight into the blocks.
func DenseRandom(seed int64, rows, cols, blockSize int) *matrix.Grid {
	rng := rand.New(rand.NewSource(seed))
	g := matrix.NewDenseGrid(rows, cols, blockSize)
	for bi := 0; bi < g.BlockRows(); bi++ {
		h, _ := g.BlockDims(bi, 0)
		for r := 0; r < h; r++ {
			for bj := 0; bj < g.BlockCols(); bj++ {
				d := g.Block(bi, bj).(*matrix.DenseBlock)
				row := d.Data[r*d.Cols() : (r+1)*d.Cols()]
				for k := range row {
					row[k] = 0.1 + rng.Float64()
				}
			}
		}
	}
	return g
}

// Ratings generates a Netflix-shaped ratings matrix: movies x users with the
// given sparsity and integer ratings 1..5.
func Ratings(seed int64, movies, users, blockSize int, sparsity float64) *matrix.Grid {
	target := int(sparsity * float64(movies) * float64(users))
	return uniformCells(seed, movies, users, blockSize, target, func(rng *rand.Rand) float64 { return float64(1 + rng.Intn(5)) })
}

// uniformCells draws target distinct cells of a rows x cols matrix, row then
// column uniformly, each new one followed by its value, and returns them cut
// into CSC blocks of side blockSize. value must never return 0.
//
// The draws are made twice from seed: once to mark the cells in a cellSet,
// and once, with every block's arrays made at their exact size, to write
// each row index and value in the place the set gives its cell (a slot
// already holding a value is a cell drawn again). No entry is held anywhere
// but in its block, so a build allocates its blocks, its cell set and one
// random source. The set is a bitmap over every cell while its words are at
// most four an entry, and a hash set of the drawn cells otherwise, so what a
// build allocates grows with its entries, never with its shape alone.
func uniformCells(seed int64, rows, cols, blockSize, target int, value func(*rand.Rand) float64) *matrix.Grid {
	g := matrix.NewGridSlots(rows, cols, blockSize)
	var cells cellSet
	if words := bitmapWords(g); words <= 4*target {
		cells = newCellBits(g, words)
	} else {
		cells = newCellKeys(g, target)
	}
	rng := rand.New(rand.NewSource(seed))
	for n := 0; n < target; {
		if !cells.mark(rng.Intn(rows), rng.Intn(cols)) {
			continue
		}
		value(rng)
		n++
	}
	blocks := cells.blocks(g)
	rng.Seed(seed)
	for n := 0; n < target; {
		b, x, r := cells.slot(rng.Intn(rows), rng.Intn(cols))
		blk := blocks[b]
		if blk.Values[x] != 0 {
			continue
		}
		blk.RowIdx[x] = r
		blk.Values[x] = value(rng)
		n++
	}
	g.SeedNNZ(target)
	return g.Filled()
}

// cellSet marks the cells uniformCells draws and, once they are all marked,
// gives each its block and its place in the block's CSC arrays.
type cellSet interface {
	// mark marks cell (i, j) and reports whether it was unmarked.
	mark(i, j int) bool
	// blocks sets every block of g to a CSC block whose column pointers
	// count the marked cells and whose row indices and values are made at
	// their exact size, and returns the blocks in g's order.
	blocks(g *matrix.Grid) []*matrix.CSCBlock
	// slot returns the block of marked cell (i, j), the cell's place in the
	// block's arrays and its row in the block.
	slot(i, j int) (b int, x, r int32)
}

// bitmapWords is the size of g's cellBits in words.
func bitmapWords(g *matrix.Grid) int {
	words := 0
	for bi := 0; bi < g.BlockRows(); bi++ {
		h, _ := g.BlockDims(bi, 0)
		for bj := 0; bj < g.BlockCols(); bj++ {
			_, w := g.BlockDims(bi, bj)
			words += (h*w + 63) / 64
		}
	}
	return words
}

// cellBits is a bitmap over a grid's cells in which block b's cells take the
// words [first[b], first[b+1]), its cell (r, c) being bit c*h+r of the run
// for the block's height h. So a cell's rank among its block's marked cells
// is its place in the block's arrays, and a block's column pointers are the
// ranks of its columns' first cells. It costs a bit and a half a cell: the
// marks, and a rank a word.
type cellBits struct {
	bs, rows, bcols    int
	blockRow, blockCol []int32
	first              []int
	bits               []uint64
	// before[w] counts the marked cells of w's block in the words before w;
	// blocks sets it.
	before []int32
}

func newCellBits(g *matrix.Grid, words int) *cellBits {
	bs := g.BlockSize()
	c := &cellBits{
		bs: bs, rows: g.Rows(), bcols: g.BlockCols(),
		blockRow: matrix.BlockOf(g.Rows(), bs), blockCol: matrix.BlockOf(g.Cols(), bs),
		first: make([]int, g.BlockRows()*g.BlockCols()+1),
	}
	for b := range c.first[1:] {
		h, w := g.BlockDims(b/c.bcols, b%c.bcols)
		c.first[b+1] = c.first[b] + (h*w+63)/64
	}
	c.bits = make([]uint64, words)
	return c
}

// locate returns the block of cell (i, j), the word holding the cell's bit,
// the bit and the cell's row in the block.
func (c *cellBits) locate(i, j int) (b, w int, bit uint64, r int) {
	bi, bj := int(c.blockRow[i]), int(c.blockCol[j])
	r0 := bi * c.bs
	h := min(c.bs, c.rows-r0)
	b, r = bi*c.bcols+bj, i-r0
	x := (j-bj*c.bs)*h + r
	return b, c.first[b] + x>>6, 1 << (x & 63), r
}

func (c *cellBits) mark(i, j int) bool {
	_, w, bit, _ := c.locate(i, j)
	if c.bits[w]&bit != 0 {
		return false
	}
	c.bits[w] |= bit
	return true
}

func (c *cellBits) slot(i, j int) (int, int32, int32) {
	b, w, bit, r := c.locate(i, j)
	return b, c.rank(w, bit), int32(r)
}

// rank returns how many of the cells marked in bit's block come before it.
func (c *cellBits) rank(w int, bit uint64) int32 {
	return c.before[w] + int32(bits.OnesCount64(c.bits[w]&(bit-1)))
}

func (c *cellBits) blocks(g *matrix.Grid) []*matrix.CSCBlock {
	c.before = make([]int32, len(c.bits))
	out := make([]*matrix.CSCBlock, len(c.first)-1)
	for b := range out {
		var n int32
		for w := c.first[b]; w < c.first[b+1]; w++ {
			c.before[w] = n
			n += int32(bits.OnesCount64(c.bits[w]))
		}
		bi, bj := b/c.bcols, b%c.bcols
		h, wd := g.BlockDims(bi, bj)
		colPtr := make([]int32, wd+1)
		for col := 0; col < wd; col++ {
			x := col * h
			colPtr[col] = c.rank(c.first[b]+x>>6, 1<<(x&63))
		}
		colPtr[wd] = n
		out[b] = matrix.NewCSCData(h, wd, colPtr, make([]int32, n), make([]float64, n))
		g.SetBlock(bi, bj, out[b])
	}
	return out
}

// cellKeys is an open-addressing hash set of marked cells, for matrices
// whose cells far outnumber the entries. A cell's key orders it by block,
// then column, then row in the block, so once blocks has sorted the keys a
// cell's place in its block's arrays is its key's index less its block's
// first. It costs two to four words an entry.
type cellKeys struct {
	bs, bcols int
	// slots holds key+1 for each marked cell, 0 for an empty slot, until
	// blocks packs the keys at its front in increasing order.
	slots []int64
	shift uint
	// keys are the sorted keys, and start[b] is the index of block b's
	// first; blocks sets both.
	keys  []int64
	start []int
}

func newCellKeys(g *matrix.Grid, target int) *cellKeys {
	// At most half the slots are ever full.
	n := bits.Len(uint(target)) + 1
	return &cellKeys{bs: g.BlockSize(), bcols: g.BlockCols(), slots: make([]int64, 1<<n), shift: uint(64 - n)}
}

// key returns cell (i, j)'s key: its block, column in the block and row in
// the block, in that order of significance.
func (c *cellKeys) key(i, j int) int64 {
	bi, bj := i/c.bs, j/c.bs
	b := int64(bi*c.bcols + bj)
	return (b*int64(c.bs)+int64(j-bj*c.bs))*int64(c.bs) + int64(i-bi*c.bs)
}

func (c *cellKeys) mark(i, j int) bool {
	k := c.key(i, j) + 1
	mask := uint64(len(c.slots) - 1)
	for s := uint64(k) * 0x9e3779b97f4a7c15 >> c.shift; ; s = (s + 1) & mask {
		switch c.slots[s] {
		case 0:
			c.slots[s] = k
			return true
		case k:
			return false
		}
	}
}

func (c *cellKeys) slot(i, j int) (int, int32, int32) {
	k := c.key(i, j)
	p, _ := slices.BinarySearch(c.keys, k)
	b := int(k / int64(c.bs*c.bs))
	return b, int32(p - c.start[b]), int32(k % int64(c.bs))
}

func (c *cellKeys) blocks(g *matrix.Grid) []*matrix.CSCBlock {
	c.keys = c.slots[:0]
	for _, k := range c.slots {
		if k != 0 {
			c.keys = append(c.keys, k-1)
		}
	}
	slices.Sort(c.keys)
	bs := int64(c.bs)
	out := make([]*matrix.CSCBlock, g.BlockRows()*c.bcols)
	c.start = make([]int, len(out))
	p := 0
	for b := range out {
		c.start[b] = p
		bi, bj := b/c.bcols, b%c.bcols
		h, wd := g.BlockDims(bi, bj)
		colPtr := make([]int32, wd+1)
		for ; p < len(c.keys) && c.keys[p]/(bs*bs) == int64(b); p++ {
			colPtr[c.keys[p]/bs%bs+1]++
		}
		for col := 0; col < wd; col++ {
			colPtr[col+1] += colPtr[col]
		}
		n := p - c.start[b]
		out[b] = matrix.NewCSCData(h, wd, colPtr, make([]int32, n), make([]float64, n))
		g.SetBlock(bi, bj, out[b])
	}
	return out
}

// PowerLawGraph generates a directed graph with a Pareto out-degree
// distribution (exponent alpha = 2.1) whose total edge count approximates
// nodes x avgDegree. The adjacency matrix has A[i][j] = 1 for an edge
// i -> j; no self loops, no duplicate edges.
func PowerLawGraph(seed int64, nodes int, avgDegree float64, blockSize int) *matrix.Grid {
	const alpha = 2.1
	rng := rand.New(rand.NewSource(seed))
	raw := make([]float64, nodes)
	var sum float64
	maxDeg := float64(nodes-1) / 4
	if maxDeg < 1 {
		maxDeg = 1
	}
	for i := range raw {
		// Pareto(1, alpha-1): 1/u^(1/(alpha-1)).
		d := math.Pow(1/(1-rng.Float64()), 1/(alpha-1))
		if d > maxDeg {
			d = maxDeg
		}
		raw[i] = d
		sum += d
	}
	scale := avgDegree * float64(nodes) / sum
	// Node i's targets go to targets[ptr[i]:ptr[i+1]]. Its degree is its
	// scaled one rounded, at least one edge and at most nodes-1, clamped in
	// float so that a degree past int's range cannot wrap.
	ptr := make([]int, nodes+1)
	for i, d := range raw {
		ptr[i+1] = ptr[i] + int(min(max(d*scale+0.5, 1), float64(nodes-1)))
	}
	targets := make([]int32, ptr[nodes])
	// stamp[j] == i+1 marks j as a target of node i already: one array for
	// every node, never cleared.
	stamp := make([]int32, nodes)
	for i := 0; i < nodes; i++ {
		mark := int32(i + 1)
		for k := ptr[i]; k < ptr[i+1]; {
			j := rng.Intn(nodes)
			if j == i || stamp[j] == mark {
				continue
			}
			stamp[j] = mark
			targets[k] = int32(j)
			k++
		}
	}
	return adjacency(nodes, blockSize, ptr, targets)
}

// adjacency cuts a graph whose node i links to targets[ptr[i]:ptr[i+1]]
// (distinct, in any order) into CSC blocks of side blockSize holding a 1 for
// every edge. Each block row is one counting pass over its nodes' targets
// and one fill pass; nodes come in order, so every column lists its rows in
// increasing order without a sort.
func adjacency(nodes, blockSize int, ptr []int, targets []int32) *matrix.Grid {
	g := matrix.NewGridSlots(nodes, nodes, blockSize)
	blockCol := matrix.BlockOf(nodes, blockSize)
	// next[j] counts column j's entries in the block row, then is their fill
	// cursor in the block's arrays.
	next := make([]int32, nodes)
	rowIdx := make([][]int32, g.BlockCols())
	for bi := 0; bi < g.BlockRows(); bi++ {
		r0 := bi * blockSize
		h, _ := g.BlockDims(bi, 0)
		clear(next)
		for _, j := range targets[ptr[r0]:ptr[r0+h]] {
			next[j]++
		}
		for bj := range rowIdx {
			c0 := bj * blockSize
			_, w := g.BlockDims(bi, bj)
			colPtr := make([]int32, w+1)
			for c := 0; c < w; c++ {
				colPtr[c+1] = colPtr[c] + next[c0+c]
				next[c0+c] = colPtr[c]
			}
			n := colPtr[w]
			values := make([]float64, n)
			for k := range values {
				values[k] = 1
			}
			rowIdx[bj] = make([]int32, n)
			g.SetBlock(bi, bj, matrix.NewCSCData(h, w, colPtr, rowIdx[bj], values))
		}
		for i := r0; i < r0+h; i++ {
			for _, j := range targets[ptr[i]:ptr[i+1]] {
				x := next[j]
				next[j] = x + 1
				rowIdx[blockCol[j]][x] = int32(i - r0)
			}
		}
	}
	g.SeedNNZ(len(targets))
	return g.Filled()
}

// RowNormalize returns a copy of the adjacency matrix with every non-empty
// row scaled to sum to 1 — the link matrix of the PageRank program (Code 2).
// It is a clone normalized by normalizeRows.
func RowNormalize(g *matrix.Grid) *matrix.Grid {
	out := g.Clone()
	normalizeRows(out)
	return out
}

// normalizeRows scales every non-empty row of g to sum to 1, in place; the
// caller must own g. Each row sums its entries in increasing column order,
// whatever the block size. A sparse block's values are divided in place; a
// dense block is replaced by a sparse block of its non-zeros.
func normalizeRows(g *matrix.Grid) {
	bs := g.BlockSize()
	sums := make([]float64, g.Rows())
	for bi := 0; bi < g.BlockRows(); bi++ {
		for bj := 0; bj < g.BlockCols(); bj++ {
			r0 := bi * bs
			switch b := g.Block(bi, bj).(type) {
			case *matrix.CSCBlock:
				// Column-major storage meets each row's entries in column order.
				for k, v := range b.Values {
					sums[r0+int(b.RowIdx[k])] += v
				}
			default:
				for i := 0; i < b.Rows(); i++ {
					for j := 0; j < b.Cols(); j++ {
						if v := b.At(i, j); v != 0 {
							sums[r0+i] += v
						}
					}
				}
			}
		}
	}
	for bi := 0; bi < g.BlockRows(); bi++ {
		for bj := 0; bj < g.BlockCols(); bj++ {
			r0 := bi * bs
			switch b := g.Block(bi, bj).(type) {
			case *matrix.CSCBlock:
				for k := range b.Values {
					if s := sums[r0+int(b.RowIdx[k])]; s != 0 {
						b.Values[k] /= s
					}
				}
			default:
				var coords []matrix.Coord
				for i := 0; i < b.Rows(); i++ {
					for j := 0; j < b.Cols(); j++ {
						if v := b.At(i, j); v != 0 {
							if s := sums[r0+i]; s != 0 {
								v /= s
							}
							coords = append(coords, matrix.Coord{Row: i, Col: j, Val: v})
						}
					}
				}
				g.SetBlock(bi, bj, matrix.NewCSC(b.Rows(), b.Cols(), coords))
			}
		}
	}
}
