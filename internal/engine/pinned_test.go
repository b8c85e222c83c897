package engine_test

import (
	"fmt"
	"testing"

	"dmac/internal/apps"
	"dmac/internal/dist"
	"dmac/internal/engine"
	"dmac/internal/rewrite"
	"dmac/internal/workload"
)

// modelNumbers is everything the cost model reports for one application run.
type modelNumbers struct {
	FLOPs        float64
	ModelSeconds float64
	CommBytes    int64
	CommEvents   int
	// StageCompute and StageNetwork are the sums of PerStage[].ComputeSeconds
	// and PerStage[].NetworkSeconds, in stage order.
	StageCompute float64
	StageNetwork float64
}

func (n modelNumbers) String() string {
	return fmt.Sprintf("{%v, %v, %d, %d, %v, %v}",
		n.FLOPs, n.ModelSeconds, n.CommBytes, n.CommEvents, n.StageCompute, n.StageNetwork)
}

// TestModelNumbersPinned pins, as exact float64 and integer literals, every
// number the cost model charges for GNMF, PageRank and linear regression at
// toy size on each planner, under the production and the scaled rates. The
// literals were recorded before the model moved into one package; any change
// to a coefficient, a rate, or the operation order inside a formula moves at
// least one of them.
func TestModelNumbersPinned(t *testing.T) {
	const bs = 8
	run := map[string]func(e *engine.Engine) (*apps.Result, error){
		"gnmf": func(e *engine.Engine) (*apps.Result, error) {
			return apps.GNMF(e, workload.SparseUniform(1, 40, 56, bs, 0.2), 4, 2, 7)
		},
		"pagerank": func(e *engine.Engine) (*apps.Result, error) {
			return apps.PageRank(e, workload.PowerLawGraph(2, 48, 3, bs), 3, 7)
		},
		"linreg": func(e *engine.Engine) (*apps.Result, error) {
			return apps.LinReg(e, workload.SparseUniform(3, 64, 24, bs, 0.3), workload.DenseRandom(4, 64, 1, bs), 0.1, 2, 7)
		},
	}
	configs := map[string]dist.Config{
		"production": {Workers: 4, LocalParallelism: 2},
		"scaled":     dist.ScaledConfig(4, 2),
	}
	planners := map[string]engine.Planner{"DMac": engine.DMac, "SystemMLS": engine.SystemMLS, "Local": engine.Local}
	want := map[string]modelNumbers{
		"production/gnmf/DMac":          {30016, 0.6000330902074109, 33516, 12, 1.8760000000000001e-06, 0.6000312142074108},
		"production/gnmf/Local":         {29696, 7.424e-06, 0, 0, 7.424e-06, 0},
		"production/gnmf/SystemMLS":     {31488, 2.7001044134832077, 110000, 54, 1.968e-06, 2.7001024454832083},
		"production/linreg/DMac":        {6748, 0.8000167534226685, 17536, 16, 4.2175e-07, 0.8000163316726685},
		"production/linreg/Local":       {6748, 1.687e-06, 0, 0, 1.687e-06, 0},
		"production/linreg/SystemMLS":   {6748, 3.400060905563286, 64944, 68, 4.217499999999999e-07, 3.400060483813286},
		"production/pagerank/DMac":      {1272, 0.4000085955136223, 9144, 8, 7.95e-08, 0.4000085160136223},
		"production/pagerank/Local":     {1272, 3.1799999999999996e-07, 0, 0, 3.1799999999999996e-07, 0},
		"production/pagerank/SystemMLS": {1272, 0.9000170444720195, 18216, 18, 7.95e-08, 0.9000169649720193},
		"scaled/gnmf/DMac":              {30016, 0.0013062542074108122, 33516, 12, 7.504e-05, 0.0012312142074108125},
		"scaled/gnmf/Local":             {29696, 0.00029696, 0, 0, 0.00029696, 0},
		"scaled/gnmf/SystemMLS":         {31488, 0.005581165483207703, 110000, 54, 7.872e-05, 0.005502445483207704},
		"scaled/linreg/DMac":            {6748, 0.0016332016726684573, 17536, 16, 1.687e-05, 0.0016163316726684573},
		"scaled/linreg/Local":           {6748, 6.748e-05, 0, 0, 6.748e-05, 0},
		"scaled/linreg/SystemMLS":       {6748, 0.0068773538132858286, 64944, 68, 1.6870000000000003e-05, 0.006860483813285828},
		"scaled/pagerank/DMac":          {1272, 0.000811696013622284, 9144, 8, 3.1799999999999996e-06, 0.000808516013622284},
		"scaled/pagerank/Local":         {1272, 1.272e-05, 0, 0, 1.272e-05, 0},
		"scaled/pagerank/SystemMLS":     {1272, 0.0018201449720191957, 18216, 18, 3.18e-06, 0.0018169649720191955},

		// GNMF with the rewriter attached: both updates run as fused
		// operators. A fused operator charges what its links charge, so on
		// the Local engine, whose one-stage plan moves nothing, the row is
		// the one above to the bit. On the planners the fused W update finds all three of its
		// inputs column-partitioned where the chain it replaces pinned rows
		// first: one repartition and one transposed instance fewer an
		// iteration (DMac: -2560 B, -2 events, -160 flops over the two).
		"production/gnmf/DMac+rw":      {29856, 0.5000306960216199, 30956, 10, 1.866e-06, 0.5000288300216198},
		"production/gnmf/Local+rw":     {29696, 7.424e-06, 0, 0, 7.424e-06, 0},
		"production/gnmf/SystemMLS+rw": {31488, 2.500098691437309, 103856, 50, 1.968e-06, 2.50009672343731},
		"scaled/gnmf/DMac+rw":          {29856, 0.0011034700216197967, 30956, 10, 7.464e-05, 0.0010288300216197968},
		"scaled/gnmf/Local+rw":         {29696, 0.00029696, 0, 0, 0.00029696, 0},
		"scaled/gnmf/SystemMLS+rw":     {31488, 0.005175443437309265, 103856, 50, 7.872e-05, 0.005096723437309266},
	}
	for rates, cfg := range configs {
		for app, f := range run {
			for name, planner := range planners {
				for _, rewritten := range []bool{false, true} {
					key := rates + "/" + app + "/" + name
					if rewritten {
						key += "+rw"
					}
					w, pinned := want[key]
					if !pinned && rewritten {
						continue // the rewriter rows are GNMF's
					}
					t.Run(key, func(t *testing.T) {
						e := engine.New(planner, cfg, bs)
						if rewritten {
							e.SetRewriter(rewrite.New())
						}
						res, err := f(e)
						if err != nil {
							t.Fatal(err)
						}
						total := res.Total()
						got := modelNumbers{
							FLOPs:        total.FLOPs,
							ModelSeconds: total.ModelSeconds,
							CommBytes:    total.CommBytes,
							CommEvents:   total.CommEvents,
						}
						for _, s := range total.PerStage {
							got.StageCompute += s.ComputeSeconds
							got.StageNetwork += s.NetworkSeconds
						}
						if got != w {
							t.Errorf("%q: %v,\nwant %v", key, got, w)
						}
					})
				}
			}
		}
	}
}
