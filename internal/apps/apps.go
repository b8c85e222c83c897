// Package apps implements the matrix applications of the paper's evaluation
// (Section 6.4 and the Appendix) against the engine API: GNMF (Code 1),
// PageRank (Code 2), Collaborative Filtering (Code 3), Linear Regression via
// conjugate gradient (Code 4) and SVD via the Lanczos algorithm (Code 5).
//
// Each application binds its inputs (those it generates cut at its data's
// block side), then runs programs per iteration; driver-side scalars flow
// between programs as parameters, exactly as the Scala driver does in the
// paper's codes. The same application code runs on any engine (DMac,
// SystemML-S, Local), which is what the comparative experiments exercise.
package apps

import (
	"fmt"

	"dmac/internal/engine"
	"dmac/internal/matrix"
)

// Result collects per-iteration metrics of an application run.
type Result struct {
	// PerIteration has one entry per outer iteration (all programs of the
	// iteration folded together).
	PerIteration []engine.Metrics
	// Scalars carries named application outputs (e.g. singular values).
	Scalars map[string]float64
}

// Total folds all iterations into one Metrics value.
func (r *Result) Total() engine.Metrics {
	var t engine.Metrics
	for _, m := range r.PerIteration {
		t.Add(m)
	}
	return t
}

// sparsityOf returns the realized sparsity of a grid, for worst-case
// propagation seeds.
func sparsityOf(g *matrix.Grid) float64 {
	cells := float64(g.Rows()) * float64(g.Cols())
	if cells == 0 {
		return 0
	}
	return float64(g.NNZ()) / cells
}

func bindAll(e *engine.Engine, grids map[string]*matrix.Grid) error {
	for name, g := range grids {
		if err := e.Bind(name, g); err != nil {
			return fmt.Errorf("apps: bind %s: %w", name, err)
		}
	}
	return nil
}
