package bench

import (
	"fmt"
	"io"

	"dmac/internal/baselines/scalapack"
	"dmac/internal/baselines/scidb"
	"dmac/internal/cost"
	"dmac/internal/engine"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/sched"
	"dmac/internal/workload"
)

// Table3 prints the dataset registry against the paper's Table 3 and the
// realized statistics of the synthetic stand-ins at the Figure 9(a) scales.
func Table3(w io.Writer) {
	fmt.Fprintln(w, "Table 3: graph datasets (paper statistics vs generated stand-ins)")
	for _, spec := range workload.Graphs {
		denom := Fig9aScales[spec.Name]
		gen := spec.Generate(denom, 1024)
		fmt.Fprintf(w, "  %s (scale 1/%d)\n", gen, denom)
	}
}

// Table4Row is one system row of Table 4.
type Table4Row struct {
	System    string
	SparseSec float64
	DenseSec  float64
}

// table4Workers mirrors the paper's 8-node, 8-process setup.
const table4Workers = 8

// Table4 reproduces Table 4: a single matrix multiplication V x H with
// sparse V1 (Netflix-shaped, sparsity 0.01) and dense V2 of the same
// dimensions, across ScaLAPACK, SciDB, SystemML-S and DMac. All systems run
// on the equivalent of 8 nodes x 8 processes.
func Table4(scaleDenominator int) ([]Table4Row, error) {
	movies, users, _ := workload.Netflix.Scaled(scaleDenominator, 64)
	k := 200 / (scaleDenominator / 8) // factor column count, scaled gently
	if k < 16 {
		k = 16
	}
	bs := sched.ChooseBlockSize(movies, users, DefaultLocalParallelism, table4Workers)
	h := workload.DenseRandom(81, users, k, bs)

	makeV := func(sparse bool) *matrix.Grid {
		if sparse {
			_, _, v := workload.Netflix.Scaled(scaleDenominator, bs)
			return v
		}
		return workload.DenseRandom(82, movies, users, bs)
	}

	rows := []Table4Row{
		{System: "ScaLAPACK"},
		{System: "SciDB"},
		{System: "SystemML-S"},
		{System: "DMac"},
	}
	for caseIdx, sparse := range []bool{true, false} {
		set := func(i int, sec float64) {
			if caseIdx == 0 {
				rows[i].SparseSec = sec
			} else {
				rows[i].DenseSec = sec
			}
		}
		v := makeV(sparse)
		// ScaLAPACK, with the same calibrated time-model constants as the
		// engines so the four systems are directly comparable.
		slCfg := scalapack.Config{ProcRows: 8, ProcCols: 8, LocalParallelism: DefaultLocalParallelism, Rates: cost.Scaled()}
		slRes, err := scalapack.Multiply(v, h, slCfg)
		if err != nil {
			return nil, fmt.Errorf("bench: table4 scalapack: %w", err)
		}
		set(0, slRes.ModelSeconds)
		// SciDB.
		sdRes, err := scidb.Multiply(v, h, scidb.Config{ScaLAPACK: slCfg})
		if err != nil {
			return nil, fmt.Errorf("bench: table4 scidb: %w", err)
		}
		set(1, sdRes.ModelSeconds)
		// SystemML-S and DMac run the one-operator program V %*% H.
		for i, planner := range []engine.Planner{engine.SystemMLS, engine.DMac} {
			e := newEngine(planner, table4Workers, bs)
			if err := e.Bind("V", v.Clone()); err != nil {
				return nil, err
			}
			if err := e.Bind("H", h.Clone()); err != nil {
				return nil, err
			}
			p := expr.NewProgram()
			V := p.Var("V", movies, users, sparsityOfGrid(v))
			H := p.Var("H", users, k, 1)
			p.Assign("C", p.Mul(V, H))
			m, err := e.Run(p, nil)
			if err != nil {
				return nil, fmt.Errorf("bench: table4 %s: %w", planner, err)
			}
			set(2+i, m.ModelSeconds)
		}
	}
	return rows, nil
}

func sparsityOfGrid(g *matrix.Grid) float64 {
	return float64(g.NNZ()) / (float64(g.Rows()) * float64(g.Cols()))
}

// WriteTable4 prints Table 4.
func WriteTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintln(w, "Table 4: matrix multiplication across systems (modelled seconds)")
	table := make([][]string, len(rows))
	for i, r := range rows {
		table[i] = []string{
			r.System,
			fmt.Sprintf("%.3f", r.SparseSec),
			fmt.Sprintf("%.3f", r.DenseSec),
		}
	}
	writeTable(w, []string{"system", "MM-Sparse", "MM-Dense"}, table)
}
