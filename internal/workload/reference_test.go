package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"unsafe"

	"dmac/internal/matrix"
)

// The staged generators are the generators' earlier bodies, kept as the
// references the block-writing ones must reproduce bit for bit: each stages
// every entry (a Coord list deduplicated through a map or a stamp array, or a
// row-major slice) and hands it to matrix.FromCoords or matrix.FromDense,
// and RowNormalize divides a clone. matrix holds FromCoords, FromDense and
// NewCSC to their own earlier bodies the same way.

// stagedSparseUniform generates a rows x cols matrix with approximately the given
// sparsity; non-zero positions are uniform, values are uniform in [0.5, 1.5)
// (bounded away from zero so products stay well-conditioned).
func stagedSparseUniform(seed int64, rows, cols, blockSize int, sparsity float64) *matrix.Grid {
	rng := rand.New(rand.NewSource(seed))
	target := int(sparsity * float64(rows) * float64(cols))
	coords := make([]matrix.Coord, 0, target)
	seen := make(map[int64]bool, target)
	for len(coords) < target {
		i, j := rng.Intn(rows), rng.Intn(cols)
		key := int64(i)*int64(cols) + int64(j)
		if seen[key] {
			continue
		}
		seen[key] = true
		coords = append(coords, matrix.Coord{Row: i, Col: j, Val: 0.5 + rng.Float64()})
	}
	return matrix.FromCoords(rows, cols, blockSize, coords)
}

// stagedDenseRandom generates a dense rows x cols matrix with values uniform in
// [0.1, 1.1) (positive, as GNMF factors require).
func stagedDenseRandom(seed int64, rows, cols, blockSize int) *matrix.Grid {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = 0.1 + rng.Float64()
	}
	return matrix.FromDense(rows, cols, blockSize, data)
}

// stagedRatings generates a Netflix-shaped ratings matrix: movies x users with the
// given sparsity and integer ratings 1..5.
func stagedRatings(seed int64, movies, users, blockSize int, sparsity float64) *matrix.Grid {
	rng := rand.New(rand.NewSource(seed))
	target := int(sparsity * float64(movies) * float64(users))
	coords := make([]matrix.Coord, 0, target)
	seen := make(map[int64]bool, target)
	for len(coords) < target {
		i, j := rng.Intn(movies), rng.Intn(users)
		key := int64(i)*int64(users) + int64(j)
		if seen[key] {
			continue
		}
		seen[key] = true
		coords = append(coords, matrix.Coord{Row: i, Col: j, Val: float64(1 + rng.Intn(5))})
	}
	return matrix.FromCoords(movies, users, blockSize, coords)
}

// stagedPowerLawGraph generates a directed graph with a Pareto out-degree
// distribution (exponent alpha = 2.1) whose total edge count approximates
// nodes x avgDegree. The adjacency matrix has A[i][j] = 1 for an edge
// i -> j; no self loops, no duplicate edges.
func stagedPowerLawGraph(seed int64, nodes int, avgDegree float64, blockSize int) *matrix.Grid {
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
	// Rounding and the floor of one edge add under one edge a node to the
	// avgDegree x nodes the scaled degrees sum to; no node has more than
	// nodes-1 targets, however large avgDegree.
	reserve := min(max(avgDegree, 0), float64(nodes-1))*float64(nodes) + float64(nodes)
	coords := make([]matrix.Coord, 0, int(reserve))
	// stamp[j] == i+1 marks j as a target of node i already: one array for
	// every node, never cleared.
	stamp := make([]int32, nodes)
	for i := 0; i < nodes; i++ {
		// Clamped in float: a degree past int's range must not wrap.
		deg := int(min(max(raw[i]*scale+0.5, 1), float64(nodes-1)))
		mark := int32(i + 1)
		for picked := 0; picked < deg; {
			j := rng.Intn(nodes)
			if j == i || stamp[j] == mark {
				continue
			}
			stamp[j] = mark
			picked++
			coords = append(coords, matrix.Coord{Row: i, Col: j, Val: 1})
		}
	}
	return matrix.FromCoords(nodes, nodes, blockSize, coords)
}

// stagedRowNormalize returns a copy of the adjacency matrix with every non-empty
// row scaled to sum to 1 — the link matrix of the PageRank program (Code 2).
// Each row sums its entries in increasing column order, whatever the block
// size. A sparse block is copied and its values divided in place; a dense
// one becomes a sparse block of its non-zeros.
func stagedRowNormalize(g *matrix.Grid) *matrix.Grid {
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
	out := g.Clone()
	for bi := 0; bi < out.BlockRows(); bi++ {
		for bj := 0; bj < out.BlockCols(); bj++ {
			r0 := bi * bs
			switch b := out.Block(bi, bj).(type) {
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
				out.SetBlock(bi, bj, matrix.NewCSC(b.Rows(), b.Cols(), coords))
			}
		}
	}
	return out
}

// stagedInputs builds the inputs a registry job of the given params has at
// block size bs, the way the builders did with the staged generators.
func stagedInputs(name string, bs int, params Params) map[string]*matrix.Grid {
	switch name {
	case "pagerank":
		nodes := params.Int("nodes", 64, 16, 4096)
		seed := int64(params.Get("seed", 1))
		degree := params.Get("degree", 3)
		if !(degree >= 1) {
			degree = 1
		}
		rank := stagedDenseRandom(seed+1, 1, nodes, bs)
		d := make([]float64, nodes)
		for i := range d {
			d[i] = 1.0 / float64(nodes)
		}
		return map[string]*matrix.Grid{
			"link": stagedRowNormalize(stagedPowerLawGraph(seed, nodes, degree, bs)),
			"rank": matrix.ScalarGrid(matrix.ScalarMul, rank, 1/matrix.SumGrid(rank)),
			"D":    matrix.FromDense(1, nodes, bs, d),
		}
	case "gram":
		rows, cols := params.Int("rows", 48, 8, 4096), params.Int("cols", 32, 8, 4096)
		sparsity := params.Get("sparsity", 0.2)
		if !(sparsity > 0 && sparsity <= 1) {
			sparsity = 0.2
		}
		return map[string]*matrix.Grid{"V": stagedSparseUniform(int64(params.Get("seed", 2)), rows, cols, bs, sparsity)}
	case "blend":
		n, k := params.Int("n", 48, 8, 4096), params.Int("k", 8, 2, 512)
		seed := int64(params.Get("seed", 3))
		return map[string]*matrix.Grid{"A": stagedDenseRandom(seed, n, k, bs), "B": stagedDenseRandom(seed+1, k, n, bs)}
	}
	panic("workload: no staged inputs for " + name)
}

// gridDiff reports how got differs from want: a block of another kind, other
// column pointers or row indices, a differing value bit (matrix.BitDiff), an
// array of got with room past its length, or two blocks of got whose arrays
// overlap up to their capacity. "" when they match.
func gridDiff(got, want *matrix.Grid) string {
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() || got.BlockSize() != want.BlockSize() {
		return fmt.Sprintf("%dx%d at block %d, want %dx%d at block %d", got.Rows(), got.Cols(), got.BlockSize(), want.Rows(), want.Cols(), want.BlockSize())
	}
	type span struct {
		lo, hi uintptr
		block  [2]int
	}
	var spans []span
	sized := true
	add := func(bi, bj int, p unsafe.Pointer, n, c, size int) {
		sized = sized && n == c
		if c > 0 {
			spans = append(spans, span{uintptr(p), uintptr(p) + uintptr(c*size), [2]int{bi, bj}})
		}
	}
	for bi := 0; bi < want.BlockRows(); bi++ {
		for bj := 0; bj < want.BlockCols(); bj++ {
			g, w := got.Block(bi, bj), want.Block(bi, bj)
			if fmt.Sprintf("%T", g) != fmt.Sprintf("%T", w) {
				return fmt.Sprintf("block (%d,%d) is a %T, want %T", bi, bj, g, w)
			}
			switch g := g.(type) {
			case *matrix.CSCBlock:
				w := w.(*matrix.CSCBlock)
				if !slices.Equal(g.ColPtr, w.ColPtr) || !slices.Equal(g.RowIdx, w.RowIdx) {
					return fmt.Sprintf("block (%d,%d) is stored unlike the reference", bi, bj)
				}
				add(bi, bj, unsafe.Pointer(unsafe.SliceData(g.ColPtr)), len(g.ColPtr), cap(g.ColPtr), 4)
				add(bi, bj, unsafe.Pointer(unsafe.SliceData(g.RowIdx)), len(g.RowIdx), cap(g.RowIdx), 4)
				add(bi, bj, unsafe.Pointer(unsafe.SliceData(g.Values)), len(g.Values), cap(g.Values), 8)
			case *matrix.DenseBlock:
				add(bi, bj, unsafe.Pointer(unsafe.SliceData(g.Data)), len(g.Data), cap(g.Data), 8)
			}
		}
	}
	if d := matrix.BitDiff(got, want); d != "" {
		return "differs at " + d
	}
	if !sized {
		return "a block's array has room past its length"
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for k := 1; k < len(spans); k++ {
		if a, b := spans[k-1], spans[k]; b.lo < a.hi && a.block != b.block {
			return fmt.Sprintf("blocks %v and %v share a backing array", a.block, b.block)
		}
	}
	return ""
}
