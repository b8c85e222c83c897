package bench

import (
	"fmt"
	"io"

	"dmac/internal/apps"
	"dmac/internal/engine"
	"dmac/internal/sched"
	"dmac/internal/workload"
)

// Fig6Point is one x-position of Figure 6: accumulated time and
// communication after the given iteration.
type Fig6Point struct {
	Iteration  int
	AccTimeSec float64
	AccCommGB  float64
}

// Fig6Result reproduces Figure 6 (GNMF on the Netflix dataset): accumulated
// execution time for DMac, SystemML-S and the single-machine R reference
// (6a) and accumulated communication for the two distributed engines (6b),
// plus the communication share of total time discussed in Section 6.2.
type Fig6Result struct {
	ScaleDenominator int
	FactorK          int
	DMac, SystemMLS  []Fig6Point
	R                []Fig6Point
	// DMacCommShare and SysCommShare are the fraction of modelled time
	// spent communicating (the paper reports ~6% vs ~44%).
	DMacCommShare, SysCommShare float64
}

// Fig6 runs GNMF for the given number of iterations on a Netflix-shaped
// matrix scaled down by scaleDenominator per dimension, with factor size k.
func Fig6(iterations, scaleDenominator, k int) (*Fig6Result, error) {
	movies, users, _ := workload.Netflix.Scaled(scaleDenominator, 64)
	bs := sched.ChooseBlockSize(movies, users, DefaultLocalParallelism, DefaultWorkers)
	res := &Fig6Result{ScaleDenominator: scaleDenominator, FactorK: k}
	for _, planner := range []engine.Planner{engine.DMac, engine.SystemMLS, engine.Local} {
		_, _, v := workload.Netflix.Scaled(scaleDenominator, bs)
		e := newEngine(planner, DefaultWorkers, bs)
		run, err := apps.GNMF(e, v, k, iterations, 42)
		if err != nil {
			return nil, fmt.Errorf("bench: fig6 %s: %w", planner, err)
		}
		points := make([]Fig6Point, 0, iterations)
		accTime, accBytes := 0.0, int64(0)
		var commTime, totalTime float64
		for i, m := range run.PerIteration {
			accTime += m.ModelSeconds
			accBytes += m.CommBytes
			points = append(points, Fig6Point{Iteration: i + 1, AccTimeSec: accTime, AccCommGB: gb(accBytes)})
			for _, s := range m.PerStage {
				commTime += s.NetworkSeconds
			}
			totalTime += m.ModelSeconds
		}
		switch planner {
		case engine.DMac:
			res.DMac = points
			res.DMacCommShare = commTime / totalTime
		case engine.SystemMLS:
			res.SystemMLS = points
			res.SysCommShare = commTime / totalTime
		case engine.Local:
			res.R = points
		}
	}
	return res, nil
}

// Write prints the figure as two tables.
func (r *Fig6Result) Write(w io.Writer) {
	fmt.Fprintf(w, "Figure 6: GNMF on Netflix-shaped data (1/%d scale, k=%d)\n", r.ScaleDenominator, r.FactorK)
	fmt.Fprintln(w, "\n(a) accumulated execution time (modelled seconds)")
	rows := make([][]string, len(r.DMac))
	for i := range r.DMac {
		rows[i] = []string{
			fmt.Sprintf("%d", r.DMac[i].Iteration),
			fmt.Sprintf("%.2f", r.DMac[i].AccTimeSec),
			fmt.Sprintf("%.2f", r.SystemMLS[i].AccTimeSec),
			fmt.Sprintf("%.2f", r.R[i].AccTimeSec),
		}
	}
	writeTable(w, []string{"iter", "DMac", "SystemML-S", "R"}, rows)
	fmt.Fprintln(w, "\n(b) accumulated communication (GB)")
	rows = rows[:0]
	for i := range r.DMac {
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.DMac[i].Iteration),
			fmt.Sprintf("%.4f", r.DMac[i].AccCommGB),
			fmt.Sprintf("%.4f", r.SystemMLS[i].AccCommGB),
		})
	}
	writeTable(w, []string{"iter", "DMac", "SystemML-S"}, rows)
	fmt.Fprintf(w, "\ncommunication share of execution time: DMac %.0f%%, SystemML-S %.0f%% (paper: 6%% vs 44%%)\n",
		100*r.DMacCommShare, 100*r.SysCommShare)
}
