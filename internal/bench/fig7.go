package bench

import (
	"fmt"
	"io"

	"dmac/internal/sched"
	"dmac/internal/workload"
)

// Fig7Row is one dataset bar pair of Figure 7: peak memory of the In-Place
// and Buffer implementations of the local block-based multiplication.
type Fig7Row struct {
	Graph        string
	Nodes, Edges int
	InPlacePeak  int64
	BufferPeak   int64
}

// Fig7Scales holds the default per-dataset scale denominators; Wikipedia is
// scaled harder so the dense product stays within a single machine, which is
// itself the point the paper makes (Buffer cannot finish Wikipedia at all).
var Fig7Scales = map[string]int{
	"soc-pokec":   4000,
	"cit-Patents": 4000,
	"LiveJournal": 4000,
	"Wikipedia":   12000,
}

// Fig7 reproduces Figure 7: multiply each graph's adjacency matrix with
// itself using both local aggregation strategies and record the peak block
// memory (analytic accounting, Section 5.3).
func Fig7(scales map[string]int) ([]Fig7Row, error) {
	if scales == nil {
		scales = Fig7Scales
	}
	var rows []Fig7Row
	for _, spec := range workload.Graphs {
		denom, ok := scales[spec.Name]
		if !ok {
			continue
		}
		// Six block-columns along the inner dimension gives the Buffer
		// strategy a realistic number of intermediates per result block.
		nodes := spec.ScaledNodes(denom)
		bs := (nodes + 5) / 6
		gen := spec.Generate(denom, bs)
		row := Fig7Row{Graph: spec.Name, Nodes: gen.Nodes, Edges: gen.Edges}
		for _, strategy := range []sched.MulStrategy{sched.InPlace, sched.Buffer} {
			mem := sched.NewMemTracker()
			exec := sched.NewExecutor(DefaultLocalParallelism, mem)
			// The inputs are resident during the multiplication.
			mem.Add(2 * gen.Adjacency.MemBytes())
			if _, err := exec.MulTrans(gen.Adjacency, gen.Adjacency, false, false, strategy); err != nil {
				return nil, fmt.Errorf("bench: fig7 %s %s: %w", spec.Name, strategy, err)
			}
			if strategy == sched.InPlace {
				row.InPlacePeak = mem.Peak()
			} else {
				row.BufferPeak = mem.Peak()
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteFig7 prints the figure as a table.
func WriteFig7(w io.Writer, rows []Fig7Row) {
	fmt.Fprintln(w, "Figure 7: In-Place vs Buffer peak memory (adjacency self-multiplication)")
	table := make([][]string, len(rows))
	for i, r := range rows {
		ratio := float64(r.BufferPeak) / float64(r.InPlacePeak)
		table[i] = []string{
			r.Graph,
			fmt.Sprintf("%d", r.Nodes),
			fmt.Sprintf("%d", r.Edges),
			fmt.Sprintf("%.3f", gb(r.InPlacePeak)),
			fmt.Sprintf("%.3f", gb(r.BufferPeak)),
			fmt.Sprintf("%.1fx", ratio),
		}
	}
	writeTable(w, []string{"graph", "nodes", "edges", "in-place GB", "buffer GB", "buffer/in-place"}, table)
}
