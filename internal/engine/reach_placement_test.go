package engine_test

import (
	"math/rand"
	"slices"
	"testing"

	"dmac/internal/apps"
	"dmac/internal/core"
	"dmac/internal/dep"
	"dmac/internal/dist"
	"dmac/internal/engine"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/rewrite"
	"dmac/internal/workload"
)

// reachTally counts the broadcasts checkReach compared, those that reach
// fewer than every worker, and the mismatches.
type reachTally struct{ broadcasts, narrowed, wrong int }

// checkReach compares the reach of every broadcast of a run with where the
// run placed the values read next to its copy: the owners (Cluster.Owner) of
// the blocks of each RMM1's partner, each RMM2's partner and each extract's
// output, through lazy transposes, as the run made them. It is every worker
// (nil) when that is all of them, when a reader of another kind reads the
// copy, or when a variable keeps it as its only complete instance.
func checkReach(t *testing.T, c *dist.Cluster, label string, plan *core.Plan, vals []*dist.DistMatrix, tally *reachTally) {
	t.Helper()
	var on []bool
	mark := func(dm *dist.DistMatrix) {
		if dm == nil {
			t.Fatalf("%s: a partner of a broadcast's reader has no value\n%s", label, plan)
		}
		for bi := 0; bi < dm.BlockRows(); bi++ {
			for bj := 0; bj < dm.BlockCols(); bj++ {
				on[c.Owner(dm, bi, bj)] = true
			}
		}
	}
	kept := func(id core.ValueID) bool {
		for _, k := range plan.Keeps() {
			if k.Assign && slices.Contains(k.Values, id) &&
				!slices.ContainsFunc(k.Values, func(v core.ValueID) bool { return plan.Value(v).Scheme != dep.Broadcast }) {
				return true
			}
		}
		return false
	}
	for i, op := range plan.Ops {
		if op.Kind != core.OpBroadcast {
			continue
		}
		on = make([]bool, plan.Workers)
		everywhere := false
		var visit func(id core.ValueID)
		visit = func(id core.ValueID) {
			everywhere = everywhere || kept(id)
			for _, r := range plan.Ops {
				for slot, in := range r.Inputs {
					switch {
					case in != id:
					case r.Kind == core.OpCompute && r.Strategy == core.RMM1 && slot == 0 && r.Inputs[1] != id:
						mark(vals[r.Inputs[1]])
					case r.Kind == core.OpCompute && r.Strategy == core.RMM2 && slot == 1 && r.Inputs[0] != id:
						mark(vals[r.Inputs[0]])
					case r.Kind == core.OpExtract:
						mark(vals[r.Output])
					case r.Kind == core.OpTranspose && r.CommBytes == 0:
						visit(r.Output)
					default:
						everywhere = true
					}
				}
			}
		}
		visit(op.Output)
		var want []int
		for w, ok := range on {
			if ok {
				want = append(want, w)
			}
		}
		if everywhere || len(want) == plan.Workers {
			want = nil
		}
		tally.broadcasts++
		if want != nil {
			tally.narrowed++
		}
		if (want == nil) != (op.Reach == nil) || !slices.Equal(want, op.Reach) {
			tally.wrong++
			t.Errorf("%s: broadcast op %d reaches %v, its readers run on %v\n%s", label, i, op.Reach, want, plan)
		}
	}
}

// TestReachIsWhereReadersRun holds every broadcast's reach to where the run
// placed its readers' partners (checkReach), over the pinned apps, the
// registry jobs and random programs, on DMac and SystemML-S, each at two
// block sizes.
func TestReachIsWhereReadersRun(t *testing.T) {
	var tally reachTally
	session := func(planner engine.Planner, bs int, rw bool, label string) *engine.Engine {
		e := engine.New(planner, dist.Config{Workers: 4, LocalParallelism: 2}, bs)
		if rw {
			e.SetRewriter(rewrite.New())
		}
		e.OnStagesRun(func(plan *core.Plan, vals []*dist.DistMatrix) {
			checkReach(t, e.Cluster(), label, plan, vals, &tally)
		})
		return e
	}
	planners := []engine.Planner{engine.DMac, engine.SystemMLS}

	for _, bs := range []int{8, 16} {
		for _, planner := range planners {
			for _, rw := range []bool{false, true} {
				label := func(app string) string { return app + "/" + planner.String() }
				if _, err := apps.GNMF(session(planner, bs, rw, label("gnmf")), workload.SparseUniform(1, 40, 56, bs, 0.2), 4, 2, 7); err != nil {
					t.Fatal(err)
				}
				if _, err := apps.PageRank(session(planner, bs, rw, label("pagerank")), workload.PowerLawGraph(2, 48, 3, bs), 3, 7); err != nil {
					t.Fatal(err)
				}
				if _, err := apps.LinReg(session(planner, bs, rw, label("linreg")), workload.SparseUniform(3, 64, 24, bs, 0.3), workload.DenseRandom(4, 64, 1, bs), 0.1, 2, 7); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	for _, job := range []struct {
		name   string
		params workload.Params
	}{
		{"pagerank", workload.Params{"nodes": 1024, "iters": 5, "degree": 8}},
		{"gram", workload.Params{"rows": 512, "cols": 128, "sparsity": 0.05}},
		{"blend", workload.Params{"n": 256, "k": 32, "iters": 2}},
	} {
		for _, bs := range []int{32, 96} {
			for _, planner := range planners {
				e := session(planner, bs, true, job.name+"/"+planner.String())
				b, err := workload.DefaultRegistry().BuildSized(job.name, func(int, int, float64) int { return bs }, job.params)
				if err != nil {
					t.Fatal(err)
				}
				for n, g := range b.Inputs {
					if err := e.Bind(n, g); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < b.Iterations; i++ {
					if _, err := e.Run(b.Program, b.Params); err != nil {
						t.Fatalf("%s: %v", job.name, err)
					}
				}
			}
		}
	}

	for seed := int64(0); seed < 40; seed++ {
		for _, bs := range []int{4, 8} {
			for _, planner := range planners {
				rng := rand.New(rand.NewSource(seed + 5200))
				prog, _ := core.RandomProgram(rng)
				e := session(planner, bs, false, "random/"+planner.String())
				for _, n := range prog.Nodes() {
					if n.Kind != expr.KindVar && n.Kind != expr.KindLoad {
						continue
					}
					g := matrix.NewDenseGrid(n.Rows, n.Cols, bs)
					for ri := 0; ri < n.Rows; ri++ {
						for ci := 0; ci < n.Cols; ci++ {
							g.Set(ri, ci, 0.2+rng.Float64())
						}
					}
					if err := e.Bind(n.Name, g); err != nil {
						t.Fatal(err)
					}
				}
				for iter := 0; iter < 2; iter++ {
					if _, err := e.Run(prog, nil); err != nil {
						t.Fatalf("seed %d bs %d %s iter %d: %v", seed, bs, planner, iter, err)
					}
				}
			}
		}
	}
	if tally.narrowed == 0 || tally.narrowed == tally.broadcasts {
		t.Errorf("%d of %d broadcasts narrowed: the test exercises only one side", tally.narrowed, tally.broadcasts)
	}
	t.Logf("%d broadcasts checked, %d narrowed, %d wrong", tally.broadcasts, tally.narrowed, tally.wrong)
}
