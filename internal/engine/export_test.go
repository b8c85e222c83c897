package engine

import (
	"dmac/internal/core"
	"dmac/internal/dist"
)

// OnStagesRun makes f see each run's plan and value table once its stages
// have run, before the run folds back.
func (e *Engine) OnStagesRun(f func(*core.Plan, []*dist.DistMatrix)) { e.ranStages = f }
