package bench

import (
	"fmt"
	"io"
	"time"

	"dmac/internal/cost"
	"dmac/internal/sched"
	"dmac/internal/workload"
)

// Fig8Point is one x-position of Figure 8: execution time and memory of the
// local blocked self-multiplication at one block size.
type Fig8Point struct {
	BlockSize int
	// WallSec is the measured time of the real computation (single host).
	WallSec float64
	// ModelSec is the deterministic time model: work divided by the
	// effective parallelism min(tasks, K*L) plus a per-task overhead — the
	// two mechanisms behind the U-shape of Figure 8(a).
	ModelSec float64
	// PeakMem is the analytic peak block memory (Eq. 2 accounting).
	PeakMem int64
}

// fig8TaskOverheadSec is the fixed scheduling/footprint cost per task in the
// Figure 8 time model; small blocks create many tasks and pay it often.
const fig8TaskOverheadSec = 20e-6

// Fig8 reproduces Figure 8 for one graph: sweep the block size, multiply
// the adjacency matrix with itself, and record time and peak memory. It
// also returns the Eq. 3 threshold m* = sqrt(M*N/(L*K)) for the dataset.
func Fig8(graphName string, scaleDenominator int, blockSizes []int) ([]Fig8Point, float64, error) {
	spec, ok := workload.GraphByName(graphName)
	if !ok {
		return nil, 0, fmt.Errorf("bench: unknown graph %q", graphName)
	}
	nodes := spec.ScaledNodes(scaleDenominator)
	threshold := sched.BlockSizeBound(nodes, nodes, DefaultLocalParallelism, DefaultWorkers)
	if len(blockSizes) == 0 {
		for _, f := range []int{24, 12, 8, 6, 4, 3, 2, 1} {
			blockSizes = append(blockSizes, nodes/f)
		}
	}
	var points []Fig8Point
	for _, bs := range blockSizes {
		if bs < 1 || bs > nodes {
			continue
		}
		adj := workload.PowerLawGraph(spec.Seed, nodes, spec.AvgDegree(), bs)
		mem := sched.NewMemTracker()
		exec := sched.NewExecutor(DefaultLocalParallelism, mem)
		mem.Add(2 * adj.MemBytes())
		start := time.Now()
		out, err := exec.MulTrans(adj, adj, false, false, sched.InPlace)
		if err != nil {
			return nil, 0, fmt.Errorf("bench: fig8 bs=%d: %w", bs, err)
		}
		wall := time.Since(start).Seconds()
		tasks := out.BlockRows() * out.BlockCols()
		slots := DefaultWorkers * DefaultLocalParallelism
		eff := tasks
		if eff > slots {
			eff = slots
		}
		// Each non-zero of the left operand meets avgDegree matches on the right.
		model := cost.Scaled().ComputeSec(cost.MulFLOPsPerRow(adj.NNZ(), spec.AvgDegree()), eff, 1) +
			float64(tasks)*fig8TaskOverheadSec/float64(slots)
		points = append(points, Fig8Point{BlockSize: bs, WallSec: wall, ModelSec: model, PeakMem: mem.Peak()})
	}
	return points, threshold, nil
}

// WriteFig8 prints the figure as a table.
func WriteFig8(w io.Writer, graph string, points []Fig8Point, threshold float64) {
	fmt.Fprintf(w, "Figure 8: block size sweep on %s (Eq. 3 threshold m* = %.0f)\n", graph, threshold)
	rows := make([][]string, len(points))
	for i, p := range points {
		rows[i] = []string{
			fmt.Sprintf("%d", p.BlockSize),
			fmt.Sprintf("%.4f", p.ModelSec),
			fmt.Sprintf("%.4f", p.WallSec),
			fmt.Sprintf("%.4f", gb(p.PeakMem)),
		}
	}
	writeTable(w, []string{"block size", "model s", "wall s", "peak GB"}, rows)
}
