package apps

import (
	"dmac/internal/engine"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/workload"
)

// GNMF runs the Gaussian non-negative matrix factorization of Code 1:
// V ~ W H with factor size k, iterating
//
//	H = H * (Wᵀ V) / (Wᵀ W H)
//	W = W * (V Hᵀ) / (W H Hᵀ)
//
// for the given number of iterations. v is the input (movies x users in the
// Netflix experiments); W and H are initialized from the seed.
func GNMF(e *engine.Engine, v *matrix.Grid, k, iterations int, seed int64) (*Result, error) {
	bs := v.BlockSize()
	w := workload.DenseRandom(seed, v.Rows(), k, bs)
	h := workload.DenseRandom(seed+1, k, v.Cols(), bs)
	if err := bindAll(e, map[string]*matrix.Grid{"V": v, "W": w, "H": h}); err != nil {
		return nil, err
	}
	prog := GNMFIteration(v.Rows(), v.Cols(), k, sparsityOf(v))
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

// GNMFIteration builds the program for one GNMF iteration over session
// variables V (rows x cols, sparsity s), W (rows x k) and H (k x cols).
func GNMFIteration(rows, cols, k int, vSparsity float64) *expr.Program {
	p := expr.NewProgram()
	V := p.Var("V", rows, cols, vSparsity)
	W := p.Var("W", rows, k, 1)
	H := p.Var("H", k, cols, 1)
	// H = H * (Wᵀ V) / (Wᵀ W %*% H)
	WtV := p.Mul(W.T(), V)
	WtW := p.Mul(W.T(), W)
	WtWH := p.Mul(WtW, H)
	newH := p.CellDiv(p.CellMul(H, WtV), WtWH)
	// W = W * (V Hᵀ) / (W %*% (H Hᵀ)), with the updated H as in Code 1.
	VHt := p.Mul(V, newH.T())
	HHt := p.Mul(newH, newH.T())
	WHHt := p.Mul(W, HHt)
	newW := p.CellDiv(p.CellMul(W, VHt), WHHt)
	p.Assign("H", newH)
	p.Assign("W", newW)
	return p
}
