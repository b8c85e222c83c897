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
// least one of them. Every broadcast these runs make is full and from a
// partitioned source, so each block skips the one receiver that owns it and
// a broadcast charges (N−1)|A|, where Eq. 1 plans N|A|: GNMF's Wᵀ (1280 B)
// and WᵀW (128 B) an iteration on DMac, plus a second 4 x 4 product on
// SystemML-S; PageRank's rank (384 B); linear regression's w (192 B). A
// CPMM shuffle charges each output block once per sender, an owner of A's
// block-columns, other than the block's owner: GNMF's two products an
// iteration have inner dimensions of seven blocks, so (N−1)|C| where Eq. 1
// plans N|C| (1280 B and 128 B an iteration, plus a second 4 x 4 product
// on SystemML-S); linear regression's 24 x 1 products too (192 B each),
// and its 1 x 1 products over 24 columns, three blocks, have three senders,
// one of them the block's owner, so two partials move where four were
// charged (16 B each). An aggregate collects 8 B from each worker that owns
// a block of its operand. GNMF folds back no transpose of a scheme its
// variable already holds: DMac's ᵀ(r) of newH (224 FLOPs) an iteration,
// three of those on SystemML-S.
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
		"production/gnmf/DMac":          {29568, 0.6000278169986706, 27884, 12, 1.8480000000000001e-06, 0.6000259689986706},
		"production/gnmf/Local":         {29696, 7.424e-06, 0, 0, 7.424e-06, 0},
		"production/gnmf/SystemMLS":     {30144, 2.7000986074373095, 103856, 54, 1.8839999999999999e-06, 2.70009672343731},
		"production/linreg/DMac":        {6748, 0.8000157624954491, 16472, 16, 4.2175e-07, 0.8000153407454491},
		"production/linreg/Local":       {6748, 1.687e-06, 0, 0, 1.687e-06, 0},
		"production/linreg/SystemMLS":   {6748, 3.4000599146360666, 63880, 68, 4.217499999999999e-07, 3.400059492886067},
		"production/pagerank/DMac":      {1272, 0.4000075226300163, 7992, 8, 7.95e-08, 0.40000744313001635},
		"production/pagerank/Local":     {1272, 3.1799999999999996e-07, 0, 0, 3.1799999999999996e-07, 0},
		"production/pagerank/SystemMLS": {1272, 0.9000159715884135, 17064, 18, 7.95e-08, 0.9000158920884134},
		"scaled/gnmf/DMac":              {29568, 0.001299888998670578, 27884, 12, 7.392000000000001e-05, 0.0012259689986705781},
		"scaled/gnmf/Local":             {29696, 0.00029696, 0, 0, 0.00029696, 0},
		"scaled/gnmf/SystemMLS":         {30144, 0.005572083437309265, 103856, 54, 7.536e-05, 0.005496723437309266},
		"scaled/linreg/DMac":            {6748, 0.0016322107454490664, 16472, 16, 1.687e-05, 0.0016153407454490665},
		"scaled/linreg/Local":           {6748, 6.748e-05, 0, 0, 6.748e-05, 0},
		"scaled/linreg/SystemMLS":       {6748, 0.006876362886066438, 63880, 68, 1.6870000000000003e-05, 0.006859492886066437},
		"scaled/pagerank/DMac":          {1272, 0.0008106231300163269, 7992, 8, 3.1799999999999996e-06, 0.0008074431300163269},
		"scaled/pagerank/Local":         {1272, 1.272e-05, 0, 0, 1.272e-05, 0},
		"scaled/pagerank/SystemMLS":     {1272, 0.0018190720884132387, 17064, 18, 3.18e-06, 0.0018158920884132385},

		// GNMF with the rewriter attached: both updates run as fused
		// operators. A fused operator charges what its links charge, so on
		// the Local engine, whose one-stage plan moves nothing, the row is
		// the one above to the bit. On the planners the fused W update finds all three of its
		// inputs column-partitioned where the chain it replaces pinned rows
		// first: one repartition and one transposed instance fewer an
		// iteration (DMac: -2560 B, -2 events, -160 flops over the two).
		"production/gnmf/DMac+rw":      {29408, 0.5000254228128796, 25324, 10, 1.838e-06, 0.5000235848128796},
		"production/gnmf/Local+rw":     {29696, 7.424e-06, 0, 0, 7.424e-06, 0},
		"production/gnmf/SystemMLS+rw": {30144, 2.500092885391411, 97712, 50, 1.8839999999999999e-06, 2.5000910013914117},
		"scaled/gnmf/DMac+rw":          {29408, 0.0010971048128795625, 25324, 10, 7.351999999999999e-05, 0.0010235848128795624},
		"scaled/gnmf/Local+rw":         {29696, 0.00029696, 0, 0, 0.00029696, 0},
		"scaled/gnmf/SystemMLS+rw":     {30144, 0.005166361391410828, 97712, 50, 7.536000000000001e-05, 0.005091001391410829},
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
