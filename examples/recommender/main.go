// Recommender: item-based collaborative filtering (Code 3) on Netflix-shaped
// ratings. Prints the top predicted items for a user and the engine
// comparison.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"dmac"
)

func main() {
	scale := flag.Int("scale", 40, "Netflix scale denominator")
	user := flag.Int("user", 0, "user column to recommend for")
	flag.Parse()

	movies := dmac.Netflix.Movies / *scale
	users := dmac.Netflix.Users / *scale
	fmt.Printf("CF on %d items x %d users (sparsity %.3f)\n\n", movies, users, dmac.Netflix.Sparsity)

	var predictions *dmac.Grid
	var ratings *dmac.Grid
	bs := 0 // the DMac session's pick, kept for every planner
	for _, planner := range []dmac.Planner{dmac.PlannerDMac, dmac.PlannerSystemMLS} {
		s := dmac.NewSession(planner, dmac.ScaledConfig(4, 8), 0)
		if bs == 0 {
			bs = s.BlockSizeFor(movies, users, dmac.Netflix.Sparsity)
		}
		_, _, r := dmac.Netflix.Scaled(*scale, bs)
		res, err := dmac.CF(s, r)
		if err != nil {
			log.Fatal(err)
		}
		t := res.Total()
		fmt.Printf("%-11s model time %7.4fs  comm %8.3f MB  shuffles %d\n",
			planner, t.ModelSeconds, float64(t.CommBytes)/1e6, t.CommEvents)
		if planner == dmac.PlannerDMac {
			predictions, _ = s.Grid("predict")
			ratings = r
		}
	}

	type scored struct {
		item  int
		score float64
	}
	var unseen []scored
	for i := 0; i < movies; i++ {
		if ratings.At(i, *user) == 0 { // not yet rated by this user
			unseen = append(unseen, scored{i, predictions.At(i, *user)})
		}
	}
	sort.Slice(unseen, func(i, j int) bool { return unseen[i].score > unseen[j].score })
	fmt.Printf("\ntop 5 recommendations for user %d (unrated items):\n", *user)
	for i := 0; i < 5 && i < len(unseen); i++ {
		fmt.Printf("  item %-6d score %.6f\n", unseen[i].item, unseen[i].score)
	}
}
