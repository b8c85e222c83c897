// Package bench is the experiment harness: for every table and figure in the
// paper's evaluation (Section 6) it provides a function that regenerates the
// corresponding rows or series on the simulated substrate, plus ablations of
// the planner's design choices. The cmd/dmacbench tool and the repository's
// bench_test.go both drive these functions.
//
// Reported execution times are the deterministic modelled times of the
// simulated cluster (compute spread over workers and threads plus network
// transfer and shuffle latency); communication is the exact byte count the
// instrumented network moved. Dataset scales are reduced from the paper's
// (see internal/workload); the comparisons preserve who wins and by roughly
// what factor, not absolute seconds.
package bench

import (
	"fmt"
	"io"
	"strings"

	"dmac/internal/dist"
	"dmac/internal/engine"
)

// Defaults mirroring the paper's 4-node cluster with 8-way local
// parallelism.
const (
	DefaultWorkers          = 4
	DefaultLocalParallelism = 8
)

// smallBlockSize keeps the checkpoint sweep's datasets multi-block, so every
// scheme and strategy runs while runs stay fast.
const smallBlockSize = 8

// clusterConfig puts every engine of the harness under cost.Scaled's rates;
// the baselines and Figure 8 price with the same ones, so every comparison is
// internally consistent.
func clusterConfig(workers int) dist.Config {
	return dist.ScaledConfig(workers, DefaultLocalParallelism)
}

func newEngine(p engine.Planner, workers, blockSize int) *engine.Engine {
	return engine.New(p, clusterConfig(workers), blockSize)
}

// gb converts bytes to gigabytes for report tables.
func gb(b int64) float64 { return float64(b) / 1e9 }

// writeTable renders a simple aligned text table.
func writeTable(w io.Writer, headers []string, rows [][]string) {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}
