package engine

import (
	"math"
	"testing"

	"dmac/internal/cost"
	"dmac/internal/sched"
)

// TestBlockSizeForProperties sweeps the sizing rule over shapes and densities
// on a 4 x 2 cluster, for a DMac engine (L·K = 8 threads) and a Local one (its
// one worker's L = 2): the side is never below Eq. 3's pick on every thread
// and never above the larger dimension, never grows as the entries grow, is
// Eq. 3's pick on one thread while the entries pay for one task, and Eq. 3's
// pick on every thread once they pay for all (L·K · cost.MinTaskEntries).
func TestBlockSizeForProperties(t *testing.T) {
	cfg := testConfig()
	dims := []int{8, 16, 48, 100, 256, 1000, 1024, 4096}
	densities := []float64{0, 1e-5, 1e-4, 1e-3, 0.003, 0.01, 0.03, 0.05, 0.1, 0.2, 0.5, 0.99, 1}
	for _, c := range []struct {
		planner Planner
		workers int
	}{{DMac, cfg.Workers}, {Local, 1}} {
		e := New(c.planner, cfg, 0)
		threads := cfg.LocalParallelism * c.workers
		for _, rows := range dims {
			for _, cols := range dims {
				eq3 := sched.ChooseBlockSize(rows, cols, cfg.LocalParallelism, c.workers)
				prev := math.MaxInt
				for _, d := range densities {
					side := e.BlockSizeFor(rows, cols, d)
					if side < eq3 || side > max(rows, cols) {
						t.Errorf("%s %dx%d at %g: side %d outside [Eq. 3 %d, %d]", c.planner, rows, cols, d, side, eq3, max(rows, cols))
					}
					if side > prev {
						t.Errorf("%s %dx%d: side grew from %d to %d as density rose to %g", c.planner, rows, cols, prev, side, d)
					}
					prev = side
					nnz := cost.EstNNZ(rows, cols, d)
					if nnz >= float64(threads*cost.MinTaskEntries) && side != eq3 {
						t.Errorf("%s %dx%d at %g: side %d, want Eq. 3's %d once every thread is paid for", c.planner, rows, cols, d, side, eq3)
					}
					if one := sched.ChooseBlockSize(rows, cols, 1, 1); nnz < 2*cost.MinTaskEntries && side != one {
						t.Errorf("%s %dx%d at %g: side %d, want Eq. 3's %d on the one thread the entries pay for", c.planner, rows, cols, d, side, one)
					}
				}
			}
		}
	}
}
