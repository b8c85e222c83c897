// GNMF factorizes a Netflix-shaped ratings matrix (V ~ W H) on all three
// engines and prints the per-iteration cost comparison of Figure 6.
package main

import (
	"flag"
	"fmt"
	"log"

	"dmac"
)

func main() {
	scale := flag.Int("scale", 40, "Netflix scale denominator (per dimension)")
	k := flag.Int("k", 32, "factor size")
	iters := flag.Int("iters", 5, "iterations")
	flag.Parse()

	movies := dmac.Netflix.Movies / *scale
	users := dmac.Netflix.Users / *scale
	fmt.Printf("GNMF on %dx%d ratings (sparsity %.3f), k=%d, %d iterations\n\n",
		movies, users, dmac.Netflix.Sparsity, *k, *iters)

	bs := 0 // the DMac session's pick, kept for every planner
	for _, planner := range []dmac.Planner{dmac.PlannerDMac, dmac.PlannerSystemMLS, dmac.PlannerLocal} {
		s := dmac.NewSession(planner, dmac.ScaledConfig(4, 8), 0)
		if bs == 0 {
			bs = s.BlockSizeFor(movies, users, dmac.Netflix.Sparsity)
		}
		_, _, v := dmac.Netflix.Scaled(*scale, bs)
		res, err := dmac.GNMF(s, v, *k, *iters, 42)
		if err != nil {
			log.Fatal(err)
		}
		t := res.Total()
		fmt.Printf("%-11s model time %8.3fs  comm %9.3f MB  shuffles %4d  wall %.3fs\n",
			planner, t.ModelSeconds, float64(t.CommBytes)/1e6, t.CommEvents, t.WallSeconds)
		// Reconstruction error of the learned factors.
		w, _ := s.Grid("W")
		h, _ := s.Grid("H")
		fmt.Printf("            learned W %dx%d, H %dx%d\n", w.Rows(), w.Cols(), h.Rows(), h.Cols())
	}
}
