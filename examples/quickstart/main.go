// Quickstart: build a small matrix program, run it on the dependency-aware
// DMac planner and on the SystemML-S baseline, and compare the communication
// each one needs.
package main

import (
	"fmt"
	"log"

	"dmac"
)

func main() {
	const rows, cols, sparsity = 2000, 800, 0.01
	bs := 0 // the DMac session's pick, kept for every planner
	for _, planner := range []dmac.Planner{dmac.PlannerDMac, dmac.PlannerSystemMLS} {
		s := dmac.NewSession(planner, dmac.ScaledConfig(4, 8), 0)
		if bs == 0 {
			bs = s.BlockSizeFor(rows, cols, sparsity)
			fmt.Printf("block size chosen by Eq. 3 on the session's cluster: %d\n\n", bs)
		}
		v := dmac.SparseUniform(1, rows, cols, bs, sparsity)
		if err := s.Bind("V", v); err != nil {
			log.Fatal(err)
		}

		// Gram = Vᵀ V, then scale it; the transposed read is free for DMac
		// (Transpose dependency) but a shuffle for the baseline.
		p := dmac.NewProgram()
		V := p.Var("V", rows, cols, sparsity)
		gram := p.Mul(V.T(), V)
		p.Assign("G", p.Scalar(dmac.ScalarMul, gram, 0.5))
		p.Sum("total", gram)

		// Inspect the plan before running it.
		plan, err := s.Plan(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s ===\n%s\n", planner, plan)

		m, err := s.Run(p, nil)
		if err != nil {
			log.Fatal(err)
		}
		total, _ := s.Scalar("total")
		g, _ := s.Grid("G")
		fmt.Printf("result G is %dx%d, sum(VᵀV) = %.2f\n", g.Rows(), g.Cols(), total)
		fmt.Printf("communication: %.2f MB in %d shuffles across %d stages\n\n",
			float64(m.CommBytes)/1e6, m.CommEvents, m.Stages)
	}
}
