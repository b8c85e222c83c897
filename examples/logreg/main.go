// Logistic regression by gradient descent: demonstrates the element-wise
// function operator (sigmoid / log) flowing through the dependency-aware
// planner, and the engine comparison on an iterative classifier.
package main

import (
	"flag"
	"fmt"
	"log"

	"dmac"
)

func main() {
	n := flag.Int("n", 20000, "training points")
	d := flag.Int("d", 200, "features")
	iters := flag.Int("iters", 20, "gradient steps")
	lr := flag.Float64("lr", 0.5, "learning rate")
	flag.Parse()

	fmt.Printf("logistic regression: %d points, %d features, %d steps\n\n", *n, *d, *iters)

	var v, y *dmac.Grid // cut at the DMac session's pick, kept for every planner
	for _, planner := range []dmac.Planner{dmac.PlannerDMac, dmac.PlannerSystemMLS} {
		s := dmac.NewSession(planner, dmac.ScaledConfig(4, 8), 0)
		if v == nil {
			v, y, _ = dmac.LabeledData(17, *n, *d, s.BlockSizeFor(*n, *d, 0.05), 0.05)
		}
		res, err := dmac.LogReg(s, v.Clone(), y.Clone(), *lr, 1e-4, *iters, 3)
		if err != nil {
			log.Fatal(err)
		}
		t := res.Total()
		fmt.Printf("%-11s model time %7.4fs  comm %8.3f MB  final NLL %.4f\n",
			planner, t.ModelSeconds, float64(t.CommBytes)/1e6, res.Scalars["nll"])
		if planner == dmac.PlannerDMac {
			w, _ := s.Grid("w")
			fmt.Printf("            learned %d weights; first three: %.4f %.4f %.4f\n\n",
				w.Rows(), w.At(0, 0), w.At(1, 0), w.At(2, 0))
		}
	}
}
