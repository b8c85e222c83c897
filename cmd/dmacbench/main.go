// dmacbench regenerates the paper's evaluation: every figure and table of
// Section 6, plus the heuristic ablation study. Each experiment prints a
// text table whose rows/series correspond to the paper's plot.
//
// Usage:
//
//	dmacbench -exp all
//	dmacbench -exp fig6 -iters 10
//	dmacbench -exp fig8 -graph LiveJournal
//	dmacbench -trace out.json -metrics-out metrics.json
//	dmacbench -kernels -kernel-sizes 64,128,256,512 -kernel-workers 1,2,4,8 -kernels-out BENCH_kernels.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"dmac/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig6 | fig7 | fig8 | fig9a | fig9b | fig10ab | fig10cd | table3 | table4 | ablation | checkpoint | all")
	iters := flag.Int("iters", 10, "iterations for iterative workloads")
	scale := flag.Int("scale", 40, "Netflix scale denominator for fig6/table4")
	graph := flag.String("graph", "soc-pokec", "graph for fig8")
	checkpointDir := flag.String("checkpoint-dir", "", "checkpoint directory for the checkpoint experiment (default: a temp dir)")
	timeout := flag.Duration("timeout", 0, "deadline for the checkpoint experiment (0 = none); runs abort cleanly between stages and block tasks")
	tracePath := flag.String("trace", "", "run a traced workload and write Chrome trace JSON to this path (skips -exp)")
	traceApp := flag.String("trace-app", "pagerank", "application the -trace run executes: pagerank | gnmf | linreg")
	metricsPath := flag.String("metrics-out", "", "with -trace, also write the metrics registry dump to this path")
	kernels := flag.Bool("kernels", false, "run only the local kernel microbenchmarks")
	kernelSizes := flag.String("kernel-sizes", "64,128,256,512", "comma-separated square block sizes for -kernels")
	kernelWorkers := flag.String("kernel-workers", "1,2,4,8", "comma-separated kernel worker counts for the -kernels multi-core curve")
	kernelsOut := flag.String("kernels-out", "", "with -kernels, also write the report JSON to this path")
	flag.Parse()

	w := os.Stdout
	if *kernels {
		if err := runKernels(w, *kernelSizes, *kernelWorkers, *kernelsOut); err != nil {
			log.Fatalf("kernels: %v", err)
		}
		return
	}
	if *tracePath != "" {
		if err := runTraced(w, *traceApp, *tracePath, *metricsPath, *iters, *scale); err != nil {
			log.Fatalf("trace: %v", err)
		}
		return
	}
	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Fprintf(w, "\n================ %s ================\n", name)
		if err := f(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}

	run("fig6", func() error {
		res, err := bench.Fig6(*iters, *scale, 32)
		if err != nil {
			return err
		}
		res.Write(w)
		return nil
	})
	run("fig7", func() error {
		rows, err := bench.Fig7(nil)
		if err != nil {
			return err
		}
		bench.WriteFig7(w, rows)
		return nil
	})
	run("fig8", func() error {
		points, threshold, err := bench.Fig8(*graph, 4000, nil)
		if err != nil {
			return err
		}
		bench.WriteFig8(w, *graph, points, threshold)
		return nil
	})
	run("fig9a", func() error {
		rows, err := bench.Fig9a(nil, 5)
		if err != nil {
			return err
		}
		bench.WriteFig9a(w, rows)
		return nil
	})
	run("fig9b", func() error {
		rows, err := bench.Fig9b()
		if err != nil {
			return err
		}
		bench.WriteFig9b(w, rows)
		return nil
	})
	run("fig10ab", func() error {
		gnmf, linreg, err := bench.Fig10ab(nil, 0, 0, 3)
		if err != nil {
			return err
		}
		bench.WriteFig10(w, "Figure 10(a): GNMF, data scaling", "nnz (M)", gnmf)
		fmt.Fprintln(w)
		bench.WriteFig10(w, "Figure 10(b): LinReg, data scaling", "nnz (M)", linreg)
		return nil
	})
	run("fig10cd", func() error {
		gnmf, linreg, err := bench.Fig10cd(nil, 0, 0, 0, 3)
		if err != nil {
			return err
		}
		bench.WriteFig10(w, "Figure 10(c): GNMF, worker scaling", "workers", gnmf)
		fmt.Fprintln(w)
		bench.WriteFig10(w, "Figure 10(d): LinReg, worker scaling", "workers", linreg)
		return nil
	})
	run("table3", func() error {
		bench.Table3(w)
		return nil
	})
	run("table4", func() error {
		rows, err := bench.Table4(*scale)
		if err != nil {
			return err
		}
		bench.WriteTable4(w, rows)
		return nil
	})
	run("checkpoint", func() error {
		dir := *checkpointDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "dmac-ckpt-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		rows, killStage, err := bench.CheckpointSweep(ctx, dir, []int{0, 4, 2, 1}, 3)
		if err != nil {
			return err
		}
		bench.WriteCheckpointSweep(w, killStage, rows)
		return nil
	})
	run("ablation", func() error {
		gnmf, err := bench.AblationGNMF(3)
		if err != nil {
			return err
		}
		bench.WriteAblation(w, "Ablation: GNMF communication by planner configuration", gnmf)
		fmt.Fprintln(w)
		cf, err := bench.AblationCF()
		if err != nil {
			return err
		}
		bench.WriteAblation(w, "Ablation: CF communication by planner configuration", cf)
		fmt.Fprintln(w)
		pullUp, reassign, err := bench.AblationMicro()
		if err != nil {
			return err
		}
		bench.WriteAblation(w, "Ablation: Pull-Up Broadcast on its trigger workload", pullUp)
		fmt.Fprintln(w)
		bench.WriteAblation(w, "Ablation: Re-assignment on its trigger workload", reassign)
		return nil
	})
}

// runKernels runs the kernel microbenchmark suite, prints the table, and
// optionally writes the JSON artifact.
func runKernels(w io.Writer, sizesCSV, workersCSV, outPath string) error {
	parseCSV := func(csv, what string) ([]int, error) {
		var out []int
		for _, s := range strings.Split(csv, ",") {
			s = strings.TrimSpace(s)
			if s == "" {
				continue
			}
			n, err := strconv.Atoi(s)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("invalid kernel %s %q", what, s)
			}
			out = append(out, n)
		}
		return out, nil
	}
	sizes, err := parseCSV(sizesCSV, "size")
	if err != nil {
		return err
	}
	if len(sizes) == 0 {
		return fmt.Errorf("no kernel sizes given")
	}
	workers, err := parseCSV(workersCSV, "worker count")
	if err != nil {
		return err
	}
	rep := bench.Kernels(sizes, workers)
	bench.WriteKernels(w, rep)
	if outPath == "" {
		return nil
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTraced executes one traced workload and writes the Chrome trace JSON
// (and optionally the metrics dump), then prints the timeline report.
func runTraced(w io.Writer, app, tracePath, metricsPath string, iters, scale int) error {
	res, err := bench.TracedRun(app, iters, scale, 0)
	if err != nil {
		return err
	}
	tf, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	defer tf.Close()
	var mf *os.File
	if metricsPath != "" {
		if mf, err = os.Create(metricsPath); err != nil {
			return err
		}
		defer mf.Close()
	}
	var mw io.Writer
	if mf != nil {
		mw = mf
	}
	fmt.Fprintf(w, "traced %s: %d comm events, %.3f MB\n\n", app, res.Net.CommEvents, float64(res.Net.Bytes)/1e6)
	if err := res.WriteTraceArtifacts(tf, mw, w); err != nil {
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	if mf != nil {
		return mf.Close()
	}
	return nil
}
