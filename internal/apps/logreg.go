package apps

import (
	"fmt"

	"dmac/internal/engine"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/workload"
)

// LogReg trains an L2-regularized logistic regression with batch gradient
// descent — an application beyond the paper's appendix that exercises the
// element-wise function operator (sigmoid / log):
//
//	P    = sigmoid(V w)
//	G    = Vᵀ (P − y)
//	w    = w·(1 − lr·λ) − G·(lr/n)
//	nll  = −Σ ( y·log P + (1−y)·log(1−P) )
//
// v holds one training point per row (n x d), y the n x 1 labels in {0, 1}.
// The model is left in session variable "w"; Result.Scalars["nll"] is the
// final negative log-likelihood and the per-iteration values are recorded
// through the engine scalar "nll".
func LogReg(e *engine.Engine, v, y *matrix.Grid, lr, lambda float64, iterations int, seed int64) (*Result, error) {
	if y.Rows() != v.Rows() || y.Cols() != 1 {
		return nil, fmt.Errorf("apps: y must be %dx1, got %dx%d", v.Rows(), y.Rows(), y.Cols())
	}
	n, d := v.Rows(), v.Cols()
	bs := v.BlockSize()
	w := matrix.ScalarGrid(matrix.ScalarMul, workload.DenseRandom(seed, d, 1, bs), 0.01)
	if err := bindAll(e, map[string]*matrix.Grid{"V": v, "y": y, "w": w}); err != nil {
		return nil, err
	}
	prog := logRegIteration(n, d, sparsityOf(v), lr, lambda)
	res := &Result{Scalars: map[string]float64{}}
	for i := 0; i < iterations; i++ {
		m, err := e.Run(prog, nil)
		if err != nil {
			return nil, err
		}
		res.PerIteration = append(res.PerIteration, m)
	}
	if nll, ok := e.Scalar("nll"); ok {
		res.Scalars["nll"] = nll
	}
	return res, nil
}

// logRegIteration builds one gradient-descent step.
func logRegIteration(n, d int, vSparsity, lr, lambda float64) *expr.Program {
	p := expr.NewProgram()
	V := p.Var("V", n, d, vSparsity)
	y := p.Var("y", n, 1, 1)
	w := p.Var("w", d, 1, 1)
	pred := p.Func(matrix.FuncSigmoid, p.Mul(V, w))
	grad := p.Mul(V.T(), p.Sub(pred, y))
	newW := p.Sub(
		p.Scalar(matrix.ScalarMul, w, 1-lr*lambda),
		p.Scalar(matrix.ScalarMul, grad, lr/float64(n)),
	)
	p.Assign("w", newW)
	// Negative log-likelihood: -(y·log P + (1-y)·log(1-P)).
	logP := p.Func(matrix.FuncLog, pred)
	log1P := p.Func(matrix.FuncLog, p.Scalar(matrix.ScalarRSub, pred, 1))
	oneMinusY := p.Scalar(matrix.ScalarRSub, y, 1)
	ll := p.Add(p.CellMul(y, logP), p.CellMul(oneMinusY, log1P))
	p.Sum("ll", ll)
	negLL := p.Scalar(matrix.ScalarMul, ll, -1)
	p.Sum("nll", negLL)
	return p
}

// LabeledData generates a linearly separable binary classification problem:
// features from the sparse generator and labels y = 1 when x·wTrue > 0.
// Returns the features, labels and the ground-truth weights.
func LabeledData(seed int64, n, d, blockSize int, sparsity float64) (v, y, wTrue *matrix.Grid) {
	v = workload.SparseUniform(seed, n, d, blockSize, sparsity)
	raw := workload.DenseRandom(seed+1, d, 1, blockSize)
	// Center the ground truth around zero so classes are balanced.
	wTrue = matrix.ScalarGrid(matrix.ScalarSub, raw, 0.6)
	scores, err := matrix.MulGrid(v, wTrue)
	if err != nil {
		panic(err) // shapes are constructed to match
	}
	y = matrix.NewDenseGrid(n, 1, blockSize)
	for i := 0; i < n; i++ {
		if scores.At(i, 0) > 0 {
			y.Set(i, 0, 1)
		}
	}
	return v, y, wTrue
}
