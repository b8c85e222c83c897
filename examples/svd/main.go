// SVD: approximate the top singular values of a Netflix-shaped matrix with
// the distributed Lanczos iteration of Code 5 and verify the trace identity.
package main

import (
	"flag"
	"fmt"
	"log"

	"dmac"
)

func main() {
	scale := flag.Int("scale", 40, "Netflix scale denominator")
	rank := flag.Int("rank", 16, "Lanczos iterations / approximation rank")
	flag.Parse()

	movies := dmac.Netflix.Movies / *scale
	users := dmac.Netflix.Users / *scale
	fmt.Printf("Lanczos SVD on %dx%d ratings, rank %d\n\n", movies, users, *rank)

	bs := 0 // the DMac session's pick, kept for every planner
	for _, planner := range []dmac.Planner{dmac.PlannerDMac, dmac.PlannerSystemMLS} {
		s := dmac.NewSession(planner, dmac.ScaledConfig(4, 8), 0)
		if bs == 0 {
			bs = s.BlockSizeFor(movies, users, dmac.Netflix.Sparsity)
		}
		_, _, v := dmac.Netflix.Scaled(*scale, bs)
		res, sv, err := dmac.SVD(s, v, *rank, 11)
		if err != nil {
			log.Fatal(err)
		}
		t := res.Total()
		fmt.Printf("%-11s model time %7.4fs  comm %8.3f MB\n",
			planner, t.ModelSeconds, float64(t.CommBytes)/1e6)
		if planner == dmac.PlannerDMac {
			fmt.Println("\ntop singular values:")
			for i, s := range sv {
				if i == 8 {
					break
				}
				fmt.Printf("  sigma_%-2d = %.4f\n", i+1, s)
			}
			fmt.Println()
		}
	}
}
