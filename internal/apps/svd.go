package apps

import (
	"fmt"
	"math"
	"sort"

	"dmac/internal/engine"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/workload"
)

// SVD approximates the top singular values of V (n x d) with the Lanczos
// algorithm of Code 5: the cluster iterates w = Vᵀ(V vc), the driver builds
// the rank x rank tridiagonal matrix, and the singular values are the square
// roots of its eigenvalues. It returns the singular values in descending
// order together with the per-iteration metrics.
//
// The Lanczos recurrence follows the standard form (the paper's listing has
// two well-known typos — alpha uses vc, not vp, and beta is ‖w‖ — which are
// corrected here, as any implementation must).
func SVD(e *engine.Engine, v *matrix.Grid, rank int, seed int64) (*Result, []float64, error) {
	n, d := v.Rows(), v.Cols()
	if rank < 1 || rank > d {
		return nil, nil, fmt.Errorf("apps: rank %d out of range [1, %d]", rank, d)
	}
	bs := v.BlockSize()
	// vc starts as a random unit vector; vp starts as zero.
	vc := workload.DenseRandom(seed, d, 1, bs)
	norm := math.Sqrt(matrix.FrobeniusSqGrid(vc))
	vc = matrix.ScalarGrid(matrix.ScalarMul, vc, 1/norm)
	vp := matrix.NewDenseGrid(d, 1, bs)
	if err := bindAll(e, map[string]*matrix.Grid{"V": v, "vc": vc, "vp": vp}); err != nil {
		return nil, nil, err
	}
	vs := sparsityOf(v)

	// Program A: wv = Vᵀ(V vc); alpha = value(vcᵀ wv).
	progA := expr.NewProgram()
	{
		V := progA.Var("V", n, d, vs)
		c := progA.Var("vc", d, 1, 1)
		wv := progA.Mul(V.T(), progA.Mul(V, c))
		progA.Value("alpha", progA.Mul(c.T(), wv))
		progA.Assign("wv", wv)
	}
	// Program B: w2 = wv - vc*alpha - vp*beta; beta' = norm2(w2); vp = vc.
	progB := expr.NewProgram()
	{
		wv := progB.Var("wv", d, 1, 1)
		c := progB.Var("vc", d, 1, 1)
		p := progB.Var("vp", d, 1, 1)
		w2 := progB.Sub(progB.Sub(wv, progB.ScalarParam(matrix.ScalarMul, c, "alpha")),
			progB.ScalarParam(matrix.ScalarMul, p, "beta"))
		progB.Norm2("beta_next", w2)
		progB.Assign("w2", w2)
		progB.Assign("vp", c)
	}
	// Program C: vc = w2 * (1/beta').
	progC := expr.NewProgram()
	{
		w2 := progC.Var("w2", d, 1, 1)
		progC.Assign("vc", progC.ScalarParam(matrix.ScalarMul, w2, "inv_beta"))
	}

	res := &Result{Scalars: map[string]float64{}}
	diag := make([]float64, 0, rank)
	sub := make([]float64, 0, rank)
	beta := 0.0
	for i := 0; i < rank; i++ {
		var iter engine.Metrics
		mA, err := e.Run(progA, nil)
		if err != nil {
			return nil, nil, err
		}
		alpha, _ := e.Scalar("alpha")
		mB, err := e.Run(progB, map[string]float64{"alpha": alpha, "beta": beta})
		if err != nil {
			return nil, nil, err
		}
		betaNext, _ := e.Scalar("beta_next")
		diag = append(diag, alpha)
		iter.Add(mA)
		iter.Add(mB)
		if betaNext < 1e-12 {
			// Lanczos breakdown: the Krylov space is exhausted; the
			// tridiagonal matrix built so far carries all information.
			res.PerIteration = append(res.PerIteration, iter)
			break
		}
		mC, err := e.Run(progC, map[string]float64{"inv_beta": 1 / betaNext})
		if err != nil {
			return nil, nil, err
		}
		iter.Add(mC)
		res.PerIteration = append(res.PerIteration, iter)
		if i < rank-1 {
			sub = append(sub, betaNext)
		}
		beta = betaNext
	}
	if len(sub) >= len(diag) && len(diag) > 0 {
		sub = sub[:len(diag)-1]
	}
	eig, err := EigTridiag(diag, sub)
	if err != nil {
		return nil, nil, err
	}
	// Singular values of V are the square roots of the eigenvalues of VᵀV;
	// clamp tiny negatives from finite precision.
	sv := make([]float64, 0, len(eig))
	for _, l := range eig {
		if l < 0 {
			l = 0
		}
		sv = append(sv, math.Sqrt(l))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(sv)))
	if len(sv) > 0 {
		res.Scalars["sigma_max"] = sv[0]
	}
	return res, sv, nil
}
