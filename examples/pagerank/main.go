// PageRank runs the Code 2 iteration on a synthetic stand-in for one of the
// paper's graph datasets and prints the top-ranked nodes plus the
// communication profile per engine.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"dmac"
)

func main() {
	graph := flag.String("graph", "soc-pokec", "dataset: soc-pokec | cit-Patents | LiveJournal | Wikipedia")
	scale := flag.Int("scale", 1000, "scale denominator")
	iters := flag.Int("iters", 20, "iterations")
	flag.Parse()

	spec, ok := dmac.GraphByName(*graph)
	if !ok {
		log.Fatalf("unknown graph %q", *graph)
	}
	nodes := spec.ScaledNodes(*scale)
	fmt.Printf("PageRank on %s stand-in: %d nodes (paper: %d), %d iterations\n\n",
		spec.Name, nodes, spec.PaperNodes, *iters)

	var ranks []float64
	bs := 0 // the DMac session's pick, kept for every planner
	for _, planner := range []dmac.Planner{dmac.PlannerDMac, dmac.PlannerSystemMLS} {
		s := dmac.NewSession(planner, dmac.ScaledConfig(4, 8), 0)
		if bs == 0 {
			bs = s.BlockSizeFor(nodes, nodes, spec.AvgDegree()/float64(nodes))
		}
		adj := spec.Generate(*scale, bs).Adjacency
		res, err := dmac.PageRank(s, adj, *iters, 7)
		if err != nil {
			log.Fatal(err)
		}
		t := res.Total()
		fmt.Printf("%-11s model time %7.4fs  comm %8.3f MB  shuffles %d\n",
			planner, t.ModelSeconds, float64(t.CommBytes)/1e6, t.CommEvents)
		if planner == dmac.PlannerDMac {
			r, _ := s.Grid("rank")
			ranks = r.ToDense()
		}
	}

	type nodeRank struct {
		node int
		rank float64
	}
	top := make([]nodeRank, len(ranks))
	for i, r := range ranks {
		top[i] = nodeRank{i, r}
	}
	sort.Slice(top, func(i, j int) bool { return top[i].rank > top[j].rank })
	fmt.Println("\ntop 10 nodes by rank:")
	for i := 0; i < 10 && i < len(top); i++ {
		fmt.Printf("  #%-2d node %-6d rank %.6f\n", i+1, top[i].node, top[i].rank)
	}
	sum := 0.0
	for _, r := range ranks {
		sum += r
	}
	fmt.Printf("rank mass: %.6f (converges to 1)\n", sum)
}
