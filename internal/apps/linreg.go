package apps

import (
	"fmt"

	"dmac/internal/engine"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/workload"
)

// LinReg runs the conjugate-gradient linear regression of Code 4. v holds
// one training point per row (n x d), y the n x 1 targets. Per iteration the
// driver computes alpha and beta from cluster-side aggregates, exactly as
// the Scala driver does:
//
//	q     = Vᵀ (V p) + p*lambda
//	alpha = norm_r2 / (pᵀ q)
//	w     = w + p*alpha
//	r     = r + q*alpha
//	beta  = norm_r2' / norm_r2
//	p     = -r + p*beta
//
// The final model is left in session variable "w"; the result records the
// residual norm per iteration under scalar "norm_r2".
func LinReg(e *engine.Engine, v, y *matrix.Grid, lambda float64, iterations int, seed int64) (*Result, error) {
	if y.Rows() != v.Rows() || y.Cols() != 1 {
		return nil, fmt.Errorf("apps: y must be %dx1, got %dx%d", v.Rows(), y.Rows(), y.Cols())
	}
	n, d := v.Rows(), v.Cols()
	bs := v.BlockSize()
	w := workload.DenseRandom(seed, d, 1, bs)
	if err := bindAll(e, map[string]*matrix.Grid{"V": v, "y": y, "w": w}); err != nil {
		return nil, err
	}
	vs := sparsityOf(v)

	// Initialization (Code 4 lines 6-8): r = -(Vᵀ y); p = -r = Vᵀ y;
	// norm_r2 = sum(r*r).
	init := expr.NewProgram()
	{
		V := init.Var("V", n, d, vs)
		Y := init.Var("y", n, 1, 1)
		vty := init.Mul(V.T(), Y)
		r := init.Scalar(matrix.ScalarMul, vty, -1)
		p := init.Scalar(matrix.ScalarMul, r, -1)
		init.Sum("norm_r2", init.CellMul(r, r))
		init.Assign("r", r)
		init.Assign("p", p)
	}
	res := &Result{Scalars: map[string]float64{}}
	initM, err := e.Run(init, nil)
	if err != nil {
		return nil, err
	}
	normR2, _ := e.Scalar("norm_r2")

	progA, progB, progC := linRegPrograms(n, d, vs, lambda)
	for i := 0; i < iterations; i++ {
		iter := initM
		initM = engine.Metrics{} // charge initialization to the first iteration only
		mA, err := e.Run(progA, nil)
		if err != nil {
			return nil, err
		}
		pq, _ := e.Scalar("pq")
		alpha := normR2 / pq
		mB, err := e.Run(progB, map[string]float64{"alpha": alpha})
		if err != nil {
			return nil, err
		}
		newNorm, _ := e.Scalar("norm_r2")
		beta := newNorm / normR2
		normR2 = newNorm
		mC, err := e.Run(progC, map[string]float64{"beta": beta})
		if err != nil {
			return nil, err
		}
		iter.Add(mA)
		iter.Add(mB)
		iter.Add(mC)
		res.PerIteration = append(res.PerIteration, iter)
	}
	res.Scalars["norm_r2"] = normR2
	return res, nil
}

// linRegPrograms builds the three per-iteration programs of the conjugate
// gradient loop; driver scalars flow between them as parameters.
func linRegPrograms(n, d int, vSparsity, lambda float64) (qProg, updateProg, directionProg *expr.Program) {
	// Program A: q = Vᵀ(V p) + p*lambda; pq = value(pᵀ q).
	qProg = expr.NewProgram()
	{
		V := qProg.Var("V", n, d, vSparsity)
		p := qProg.Var("p", d, 1, 1)
		vp := qProg.Mul(V, p)
		q := qProg.Add(qProg.Mul(V.T(), vp), qProg.Scalar(matrix.ScalarMul, p, lambda))
		qProg.Value("pq", qProg.Mul(p.T(), q))
		qProg.Assign("q", q)
	}
	// Program B: w += p*alpha; r += q*alpha; norm_r2 = sum(r*r).
	updateProg = expr.NewProgram()
	{
		w := updateProg.Var("w", d, 1, 1)
		p := updateProg.Var("p", d, 1, 1)
		r := updateProg.Var("r", d, 1, 1)
		q := updateProg.Var("q", d, 1, 1)
		newW := updateProg.Add(w, updateProg.ScalarParam(matrix.ScalarMul, p, "alpha"))
		newR := updateProg.Add(r, updateProg.ScalarParam(matrix.ScalarMul, q, "alpha"))
		updateProg.Sum("norm_r2", updateProg.CellMul(newR, newR))
		updateProg.Assign("w", newW)
		updateProg.Assign("r", newR)
	}
	// Program C: p = -r + p*beta.
	directionProg = expr.NewProgram()
	{
		p := directionProg.Var("p", d, 1, 1)
		r := directionProg.Var("r", d, 1, 1)
		newP := directionProg.Add(
			directionProg.Scalar(matrix.ScalarMul, r, -1),
			directionProg.ScalarParam(matrix.ScalarMul, p, "beta"),
		)
		directionProg.Assign("p", newP)
	}
	return qProg, updateProg, directionProg
}
