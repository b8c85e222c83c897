// dmacrun executes one of the bundled applications end-to-end on a chosen
// engine and prints per-iteration metrics.
//
// Usage:
//
//	dmacrun -app gnmf -planner dmac -iters 5 -scale 40 -workers 4
//	dmacrun -app pagerank -trace trace.json -metrics-out metrics.json
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"dmac"
)

func main() {
	app := flag.String("app", "gnmf", "application: gnmf | pagerank | linreg | cf | svd")
	plannerName := flag.String("planner", "dmac", "engine: dmac | systemml | local")
	iters := flag.Int("iters", 5, "iterations")
	scale := flag.Int("scale", 40, "dataset scale denominator")
	workers := flag.Int("workers", 4, "cluster workers")
	k := flag.Int("k", 32, "factor size / rank where applicable")
	timeout := flag.Duration("timeout", 0, "deadline for the whole run (0 = none); the engine aborts cleanly between stages and block tasks")
	checkpointDir := flag.String("checkpoint-dir", "", "snapshot each run's live values into this directory after every stage but the last, in the background; recovery after injected or simulated failures restores the newest snapshot instead of replaying lineage (restore points of the running iteration: the next one removes them)")
	noRewrite := flag.Bool("no-rewrite", false, "disable the algebraic rewrite pass (chain reordering, transpose pushdown, identity folding) that runs before planning")
	tracePath := flag.String("trace", "", "write a Chrome trace JSON of the run to this path")
	metricsPath := flag.String("metrics-out", "", "write the metrics registry dump to this path")
	flag.Parse()

	var planner dmac.Planner
	switch *plannerName {
	case "dmac":
		planner = dmac.PlannerDMac
	case "systemml":
		planner = dmac.PlannerSystemMLS
	case "local":
		planner = dmac.PlannerLocal
	default:
		log.Fatalf("unknown planner %q", *plannerName)
	}

	var tracer *dmac.Tracer
	var registry *dmac.MetricsRegistry
	if *tracePath != "" || *metricsPath != "" {
		tracer = dmac.NewTracer()
		registry = dmac.NewMetricsRegistry()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	res, err := run(ctx, *app, planner, *iters, *scale, *workers, *k, *checkpointDir, !*noRewrite, tracer, registry)
	if err != nil {
		log.Fatal(err)
	}
	if *tracePath != "" {
		if err := writeFile(*tracePath, func(f *os.File) error {
			return dmac.WriteChromeTrace(f, tracer.Spans())
		}); err != nil {
			log.Fatalf("trace: %v", err)
		}
	}
	if *metricsPath != "" {
		if err := writeFile(*metricsPath, func(f *os.File) error {
			return dmac.WriteMetricsJSON(f, registry.Snapshot())
		}); err != nil {
			log.Fatalf("metrics: %v", err)
		}
	}
	fmt.Printf("\n%-4s %12s %12s %10s %8s\n", "iter", "model s", "comm MB", "shuffles", "stages")
	for i, m := range res.PerIteration {
		fmt.Printf("%-4d %12.4f %12.3f %10d %8d\n", i+1, m.ModelSeconds, float64(m.CommBytes)/1e6, m.CommEvents, m.Stages)
	}
	t := res.Total()
	fmt.Printf("\ntotal: %.4f modelled seconds, %.3f MB communicated, wall %.3fs\n",
		t.ModelSeconds, float64(t.CommBytes)/1e6, t.WallSeconds)
	for name, v := range res.Scalars {
		fmt.Printf("scalar %s = %.6g\n", name, v)
	}
}

// writeFile creates path, hands it to write, and closes it, surfacing write
// and close errors.
func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(ctx context.Context, app string, planner dmac.Planner, iters, scale, workers, k int, checkpointDir string, rewrite bool, tracer *dmac.Tracer, registry *dmac.MetricsRegistry) (*dmac.AppResult, error) {
	cfg := dmac.ClusterConfig{Workers: workers, LocalParallelism: 8}
	newSession := func() *dmac.Session {
		s := dmac.NewSession(planner, cfg, 0)
		s.SetBaseContext(ctx)
		if rewrite {
			s.SetRewriter(dmac.NewRewriter())
		}
		if checkpointDir != "" {
			if err := s.SetCheckpoint(checkpointDir, dmac.CheckpointPolicy{Interval: 1}); err != nil {
				log.Fatalf("checkpoint: %v", err)
			}
		}
		if tracer != nil || registry != nil {
			s.SetObserver(tracer, registry)
		}
		return s
	}
	switch app {
	case "gnmf":
		movies, users := dmac.Netflix.Movies/scale, dmac.Netflix.Users/scale
		s := newSession()
		_, _, v := dmac.Netflix.Scaled(scale, s.BlockSizeFor(movies, users, dmac.Netflix.Sparsity))
		fmt.Printf("GNMF on %dx%d ratings, k=%d, %s\n", movies, users, k, planner)
		return dmac.GNMF(s, v, k, iters, 42)
	case "pagerank":
		spec, _ := dmac.GraphByName("soc-pokec")
		nodes := spec.ScaledNodes(scale)
		s := newSession()
		fmt.Printf("PageRank on soc-pokec/%d (%d nodes), %s\n", scale, nodes, planner)
		g := spec.Generate(scale, s.BlockSizeFor(nodes, nodes, spec.AvgDegree()/float64(nodes)))
		return dmac.PageRank(s, g.Adjacency, iters, 7)
	case "linreg":
		rows, cols, sparsity := 800000/scale, 500, 10.0/500
		s := newSession()
		bs := s.BlockSizeFor(rows, cols, sparsity)
		v := dmac.SparseUniform(3, rows, cols, bs, sparsity)
		y := dmac.DenseRandom(4, rows, 1, bs)
		fmt.Printf("LinReg on %dx%d, %s\n", rows, cols, planner)
		return dmac.LinReg(s, v, y, 1e-6, iters, 5)
	case "cf":
		movies, users := dmac.Netflix.Movies/scale, dmac.Netflix.Users/scale
		s := newSession()
		_, _, r := dmac.Netflix.Scaled(scale, s.BlockSizeFor(movies, users, dmac.Netflix.Sparsity))
		fmt.Printf("CF on %dx%d ratings, %s\n", movies, users, planner)
		return dmac.CF(s, r)
	case "svd":
		movies, users := dmac.Netflix.Movies/scale, dmac.Netflix.Users/scale
		s := newSession()
		_, _, v := dmac.Netflix.Scaled(scale, s.BlockSizeFor(movies, users, dmac.Netflix.Sparsity))
		fmt.Printf("SVD on %dx%d ratings, rank %d, %s\n", movies, users, k, planner)
		res, sv, err := dmac.SVD(s, v, k, 11)
		if err != nil {
			return nil, err
		}
		for i, sigma := range sv {
			if i == 5 {
				break
			}
			fmt.Printf("  sigma_%d = %.4f\n", i+1, sigma)
		}
		return res, nil
	default:
		return nil, fmt.Errorf("unknown app %q", app)
	}
}
