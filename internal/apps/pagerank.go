package apps

import (
	"dmac/internal/engine"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/workload"
)

// PageRank runs Code 2 on a row-normalized link matrix:
//
//	rank = (rank %*% link) * 0.85 + D * 0.15
//
// where rank is 1 x N and D is the uniform teleport vector. adjacency is the
// raw graph; it is row-normalized here.
func PageRank(e *engine.Engine, adjacency *matrix.Grid, iterations int, seed int64) (*Result, error) {
	n := adjacency.Rows()
	bs := adjacency.BlockSize()
	link := workload.RowNormalize(adjacency)
	rank := workload.DenseRandom(seed, 1, n, bs)
	// Normalize the random initial ranks to a distribution so the iteration
	// converges to the stationary scale quickly.
	rank = matrix.ScalarGrid(matrix.ScalarMul, rank, 1/matrix.SumGrid(rank))
	// D is the uniform distribution so the ranks keep a probability-like
	// scale.
	dData := make([]float64, n)
	for i := range dData {
		dData[i] = 1.0 / float64(n)
	}
	d := matrix.FromDense(1, n, bs, dData)
	if err := bindAll(e, map[string]*matrix.Grid{"link": link, "rank": rank, "D": d}); err != nil {
		return nil, err
	}
	prog := PageRankIteration(n, sparsityOf(link))
	res := &Result{Scalars: map[string]float64{}}
	for i := 0; i < iterations; i++ {
		m, err := e.Run(prog, nil)
		if err != nil {
			return nil, err
		}
		res.PerIteration = append(res.PerIteration, m)
	}
	return res, nil
}

// PageRankIteration builds the program for one PageRank iteration over
// session variables link (n x n, given sparsity), rank and D (1 x n).
func PageRankIteration(n int, linkSparsity float64) *expr.Program {
	p := expr.NewProgram()
	link := p.Var("link", n, n, linkSparsity)
	rank := p.Var("rank", 1, n, 1)
	d := p.Var("D", 1, n, 1)
	walked := p.Scalar(matrix.ScalarMul, p.Mul(rank, link), 0.85)
	teleport := p.Scalar(matrix.ScalarMul, d, 0.15)
	p.Assign("rank", p.Add(walked, teleport))
	return p
}
