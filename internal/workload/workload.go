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
	"math/rand"

	"dmac/internal/matrix"
)

// SparseUniform generates a rows x cols matrix with approximately the given
// sparsity; non-zero positions are uniform, values are uniform in [0.5, 1.5)
// (bounded away from zero so products stay well-conditioned).
func SparseUniform(seed int64, rows, cols, blockSize int, sparsity float64) *matrix.Grid {
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

// DenseRandom generates a dense rows x cols matrix with values uniform in
// [0.1, 1.1) (positive, as GNMF factors require).
func DenseRandom(seed int64, rows, cols, blockSize int) *matrix.Grid {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = 0.1 + rng.Float64()
	}
	return matrix.FromDense(rows, cols, blockSize, data)
}

// Ratings generates a Netflix-shaped ratings matrix: movies x users with the
// given sparsity and integer ratings 1..5.
func Ratings(seed int64, movies, users, blockSize int, sparsity float64) *matrix.Grid {
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

// RowNormalize returns a copy of the adjacency matrix with every non-empty
// row scaled to sum to 1 — the link matrix of the PageRank program (Code 2).
// Each row sums its entries in increasing column order, whatever the block
// size. A sparse block is copied and its values divided in place; a dense
// one becomes a sparse block of its non-zeros.
func RowNormalize(g *matrix.Grid) *matrix.Grid {
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
