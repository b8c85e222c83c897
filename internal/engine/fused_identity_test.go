package engine_test

import (
	"fmt"
	"math"
	"testing"

	"dmac/internal/apps"
	"dmac/internal/dist"
	"dmac/internal/dist/transport"
	"dmac/internal/engine"
	"dmac/internal/matrix"
	"dmac/internal/rewrite"
	"dmac/internal/workload"
)

// fusedCase is one application run with and without the rewriter.
type fusedCase struct {
	name string
	outs []string
	// exact marks the applications whose rewritten programs differ from the
	// originals by cell-wise fusion alone, so the two runs must agree to the
	// bit; the others reorder a product chain as well.
	exact bool
	// run drives the application on the engine and returns its driver
	// scalars and the metrics of all its runs.
	run func(e *engine.Engine) (map[string]float64, engine.Metrics, error)
}

func fusedCases(bs int) []fusedCase {
	v, y, _ := apps.LabeledData(5, 48, 16, bs, 0.3)
	app := func(name string, exact bool, outs []string, f func(e *engine.Engine) (*apps.Result, error)) fusedCase {
		return fusedCase{name: name, outs: outs, exact: exact, run: func(e *engine.Engine) (map[string]float64, engine.Metrics, error) {
			res, err := f(e)
			if err != nil {
				return nil, engine.Metrics{}, err
			}
			return res.Scalars, res.Total(), nil
		}}
	}
	served := func(name string, p workload.Params) fusedCase {
		b, err := workload.DefaultRegistry().Build(name, bs, p)
		if err != nil {
			panic(err) // fixed registry jobs at fixed parameters
		}
		return fusedCase{name: "job/" + name, outs: b.Outputs, exact: true, run: func(e *engine.Engine) (map[string]float64, engine.Metrics, error) {
			var total engine.Metrics
			for n, g := range b.Inputs {
				if err := e.Bind(n, g.Clone()); err != nil {
					return nil, total, err
				}
			}
			for i := 0; i < b.Iterations; i++ {
				m, err := e.Run(b.Program, b.Params)
				if err != nil {
					return nil, total, err
				}
				total.Add(m)
			}
			sc := map[string]float64{}
			for _, n := range b.Scalars {
				sc[n], _ = e.Scalar(n)
			}
			return sc, total, nil
		}}
	}
	return []fusedCase{
		app("gnmf", true, []string{"W", "H"}, func(e *engine.Engine) (*apps.Result, error) {
			return apps.GNMF(e, workload.SparseUniform(1, 40, 56, bs, 0.2), 4, 50, 7)
		}),
		app("pagerank", true, []string{"rank"}, func(e *engine.Engine) (*apps.Result, error) {
			return apps.PageRank(e, workload.PowerLawGraph(2, 48, 3, bs), 6, 7)
		}),
		app("logreg", true, []string{"w"}, func(e *engine.Engine) (*apps.Result, error) {
			return apps.LogReg(e, v, y, 0.1, 0.01, 4, 7)
		}),
		app("linreg", false, []string{"w"}, func(e *engine.Engine) (*apps.Result, error) {
			return apps.LinReg(e, workload.SparseUniform(3, 64, 24, bs, 0.3), workload.DenseRandom(4, 64, 1, bs), 0.1, 3, 7)
		}),
		app("cf", false, []string{"predict"}, func(e *engine.Engine) (*apps.Result, error) {
			return apps.CF(e, workload.SparseUniform(6, 40, 32, bs, 0.2))
		}),
		served("pagerank", workload.Params{"nodes": 64, "iters": 3, "degree": 3}),
		served("gram", workload.Params{"rows": 32, "cols": 16, "sparsity": 0.2}),
		served("blend", workload.Params{"n": 32, "k": 4, "iters": 2}),
	}
}

// loopbackWorkers starts n in-process TCP workers and returns their
// addresses.
func loopbackWorkers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		w := transport.NewWorker(transport.WorkerConfig{})
		a, err := w.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve()
		t.Cleanup(func() { w.Close() })
		addrs[i] = a.String()
	}
	return addrs
}

// TestFusedResultsBitIdentical: with the rewriter attached the cell-wise
// trees of GNMF, PageRank, logistic regression and the served jobs run fused
// and, where the plan licenses it, in place; detached, every operator runs
// as a tree of one link. On every planner, in process and over the TCP
// transport, both must produce the same bits.
func TestFusedResultsBitIdentical(t *testing.T) {
	const bs = 8
	addrs := loopbackWorkers(t, 4)
	type config struct {
		name    string
		planner engine.Planner
		wire    bool
	}
	configs := []config{
		{"DMac", engine.DMac, false}, {"SystemML-S", engine.SystemMLS, false},
		{"Local", engine.Local, false}, {"DMac/tcp", engine.DMac, true},
	}
	for _, tc := range fusedCases(bs) {
		if !tc.exact {
			continue
		}
		type outcome struct {
			grids   map[string]*matrix.Grid
			scalars map[string]float64
		}
		for _, c := range configs {
			var ref *outcome // the configuration's unfused run
			for _, fused := range []bool{false, true} {
				label := fmt.Sprintf("%s on %s fused=%v", tc.name, c.name, fused)
				cfg := dist.Config{Workers: 4, LocalParallelism: 2}
				if c.wire {
					cfg.WorkerAddrs = addrs
				}
				e := engine.New(c.planner, cfg, bs)
				if fused {
					e.SetRewriter(rewrite.New())
				}
				scalars, _, err := tc.run(e)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got := &outcome{grids: map[string]*matrix.Grid{}, scalars: scalars}
				for _, name := range tc.outs {
					g, ok := e.Grid(name)
					if !ok {
						t.Fatalf("%s: output %s missing", label, name)
					}
					got.grids[name] = g
				}
				if err := e.Close(); err != nil {
					t.Fatalf("%s: close: %v", label, err)
				}
				if ref == nil {
					ref = got
					continue
				}
				for name, g := range got.grids {
					if d := matrix.BitDiff(g, ref.grids[name]); d != "" {
						t.Errorf("%s: %s is not bit-identical to the unfused run: %s", label, name, d)
					}
				}
				for name, v := range got.scalars {
					if math.Float64bits(v) != math.Float64bits(ref.scalars[name]) {
						t.Errorf("%s: scalar %s = %v, unfused run %v", label, name, v, ref.scalars[name])
					}
				}
			}
		}
	}
}

// TestFusedPlansNeverMoveMoreBytes runs the paper's applications and the
// served jobs, first iteration to steady state, with and without the
// rewriter. A fused operator puts all its leaves before Eq. 1 at once, where
// the chain it replaces pinned a scheme link by link, so its plan may move
// fewer bytes — GNMF's W update and PageRank's damping sum lose a repartition
// each — and must never move more.
func TestFusedPlansNeverMoveMoreBytes(t *testing.T) {
	const bs = 8
	// fewer lists the applications whose rewritten plans are strictly cheaper
	// (collaborative filtering through its reordered chain).
	fewer := map[string]bool{"gnmf": true, "pagerank": true, "job/pagerank": true, "cf": true}
	for _, tc := range fusedCases(bs) {
		var comm [2]int64
		for i, fused := range []bool{false, true} {
			e := engine.New(engine.DMac, dist.ScaledConfig(4, 2), bs)
			if fused {
				e.SetRewriter(rewrite.New())
			}
			_, total, err := tc.run(e)
			if err != nil {
				t.Fatalf("%s fused=%v: %v", tc.name, fused, err)
			}
			comm[i] = total.CommBytes
		}
		if comm[1] > comm[0] || (comm[1] < comm[0]) != fewer[tc.name] {
			t.Errorf("%s: rewritten plans moved %d bytes, original %d (strictly fewer expected: %v)", tc.name, comm[1], comm[0], fewer[tc.name])
		}
	}
}
