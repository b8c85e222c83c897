// Linear regression by conjugate gradient (Code 4): the driver computes
// alpha/beta from cluster-side aggregates each iteration. Prints the
// residual convergence and the engine comparison of Figure 9(b)/10.
package main

import (
	"flag"
	"fmt"
	"log"

	"dmac"
)

func main() {
	rows := flag.Int("rows", 20000, "training points")
	cols := flag.Int("cols", 500, "features")
	nnzPerRow := flag.Int("nnz", 10, "non-zeros per training point")
	iters := flag.Int("iters", 10, "CG iterations")
	flag.Parse()

	sparsity := float64(*nnzPerRow) / float64(*cols)
	fmt.Printf("CG linear regression: V %dx%d (%.4f sparse), %d iterations\n\n",
		*rows, *cols, sparsity, *iters)

	bs := 0 // the DMac session's pick, kept for every planner
	for _, planner := range []dmac.Planner{dmac.PlannerDMac, dmac.PlannerSystemMLS} {
		s := dmac.NewSession(planner, dmac.ScaledConfig(4, 8), 0)
		if bs == 0 {
			bs = s.BlockSizeFor(*rows, *cols, sparsity)
		}
		v := dmac.SparseUniform(3, *rows, *cols, bs, sparsity)
		y := dmac.DenseRandom(4, *rows, 1, bs)
		res, err := dmac.LinReg(s, v, y, 1e-6, *iters, 5)
		if err != nil {
			log.Fatal(err)
		}
		t := res.Total()
		fmt.Printf("%-11s model time %7.4fs  comm %8.3f MB  final residual² %.6g\n",
			planner, t.ModelSeconds, float64(t.CommBytes)/1e6, res.Scalars["norm_r2"])
		if planner == dmac.PlannerDMac {
			fmt.Println("            per-iteration communication (MB):")
			for i, m := range res.PerIteration {
				fmt.Printf("              iter %2d: %8.3f\n", i+1, float64(m.CommBytes)/1e6)
			}
		}
	}
	fmt.Println("\nDMac partitions V once; the baseline repartitions it twice per iteration (Section 6.5).")
}
