package engine

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dmac/internal/dist"
	"dmac/internal/dist/transport"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/rewrite"
	"dmac/internal/workload"
)

// pageRankIteration is one iteration of paper Code 2 over an n-node graph:
// rank = 0.85 · rank %*% link + 0.15 · D.
func pageRankIteration(n int, linkSparsity float64) *expr.Program {
	p := expr.NewProgram()
	link := p.Var("link", n, n, linkSparsity)
	rank := p.Var("rank", 1, n, 1)
	d := p.Var("D", 1, n, 1)
	walked := p.Scalar(matrix.ScalarMul, p.Mul(rank, link), 0.85)
	teleport := p.Scalar(matrix.ScalarMul, d, 0.15)
	p.Assign("rank", p.Add(walked, teleport))
	return p
}

// pageRankInputs are a seeded power-law graph of n nodes, row-normalized, a
// normalized rank vector and the teleport vector, cut at bs.
func pageRankInputs(seed int64, n, bs int) map[string]*matrix.Grid {
	rank := workload.DenseRandom(seed+1, 1, n, bs)
	d := make([]float64, n)
	for i := range d {
		d[i] = 1 / float64(n)
	}
	return map[string]*matrix.Grid{
		"link": workload.RowNormalize(workload.PowerLawGraph(seed, n, 8, bs)),
		"rank": matrix.ScalarGrid(matrix.ScalarMul, rank, 1/matrix.SumGrid(rank)),
		"D":    matrix.FromDense(1, n, bs, d),
	}
}

// startWorkers starts n loopback TCP workers in this process, closed when
// the test ends, and returns their addresses.
func startWorkers(t *testing.T, n int) []string {
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

// perRun runs run n times and returns the heap objects and bytes the
// process allocated per run, in-process TCP workers included. It reads
// MemStats rather than calling testing.AllocsPerRun, which would run at
// GOMAXPROCS 1 whatever the caller set.
func perRun(n int, run func()) (objects, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestWarmRunAllocations pins what a warm run allocates, at GOMAXPROCS 1, 2
// and 4, for two shapes:
//
//   - PageRank: pagerank_wire's shape at a tenth of its side (six blocks a
//     side, four workers, the rewriter on), in process and over loopback TCP
//     to in-process workers. What is left is the run's new values (each
//     operator's DistMatrix, each result grid's header and block slots) and
//     the stage ledger Metrics.PerStage hands the caller (DESIGN.md §12,
//     "What a warm run allocates"): 8 objects, 816 bytes. At one P that is
//     all a run allocates, in process and over TCP alike; with more, a
//     sync.Pool Get now and then runs on a P whose own cache is empty while
//     another P holds the pooled object, and makes one (8.0 to 8.8 objects
//     a run here).
//   - GNMF: the gnmf ledger workload's block shape (1632, k = 64, 1 % dense
//     V) over two block rows and four block columns, in process. Its sparse
//     products take their scratch from pools every P shares, so a product
//     on one P finds the buffer one on another P gave back; what is left is
//     the run's new values and its stage ledger, plus, past one P, a pooled
//     stage or batch record now and then. Past one P a run also now and then
//     needs one more dense pack arena than any run before it (up to 1 MiB,
//     one object), so its bytes are pinned at one P only.
//
// Lower a pin when a change lowers what a run allocates; never raise one.
func TestWarmRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets mean nothing under the race detector")
	}
	type pin struct{ objects, bytes float64 } // bytes 0: not pinned
	const prN, prBS = 600, 100
	const gRows, gCols, gK, gBS = 1776, 4 * 1632, 64, 1632
	prIn := pageRankInputs(1, prN, prBS)
	cases := []struct {
		modes []string // "inproc", "tcp" or the shape's name: in process
		bs    int
		in    map[string]*matrix.Grid
		prog  *expr.Program
		warm  int
		runs  int
		pins  map[int]pin
	}{
		{
			modes: []string{"inproc", "tcp"}, bs: prBS, in: prIn,
			prog: pageRankIteration(prN, float64(prIn["link"].NNZ())/(prN*prN)),
			warm: 25, runs: 100,
			pins: map[int]pin{
				1: {8.5, 850}, // half an object over: a stray runtime allocation, not one a run
				2: {10, 1100},
				4: {10, 1100},
			},
		},
		{
			modes: []string{"gnmf"}, bs: gBS,
			in: map[string]*matrix.Grid{
				"V": workload.SparseUniform(1, gRows, gCols, gBS, 0.01),
				"W": workload.DenseRandom(2, gRows, gK, gBS),
				"H": workload.DenseRandom(3, gK, gCols, gBS),
			},
			prog: gnmfProgramDims(gRows, gCols, gK, 0.01),
			warm: 15, runs: 40,
			pins: map[int]pin{
				1: {30.5, 2300},
				2: {34.5, 0},
				4: {36.5, 0},
			},
		},
	}
	for _, c := range cases {
		for _, mode := range c.modes {
			for _, procs := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/procs=%d", mode, procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					cfg := dist.ScaledConfig(4, 8)
					if mode == "tcp" {
						cfg.WorkerAddrs = startWorkers(t, 4)
					}
					e := New(DMac, cfg, c.bs)
					defer e.Close()
					e.SetRewriter(rewrite.New())
					for name, g := range c.in {
						if err := e.Bind(name, g.Clone()); err != nil {
							t.Fatal(err)
						}
					}
					run := func() {
						if _, err := e.Run(c.prog, nil); err != nil {
							t.Fatal(err)
						}
					}
					// Set-up and warm-up garbage is collected first, so that
					// no collection empties the pools the runs reuse while
					// they are measured.
					runtime.GC()
					for i := 0; i < c.warm; i++ {
						run()
					}
					runtime.GC()
					objects, bytes := perRun(c.runs, run)
					t.Logf("a warm run allocates %.2f objects, %.0f bytes", objects, bytes)
					pin := c.pins[procs]
					if objects > pin.objects || pin.bytes > 0 && bytes > pin.bytes {
						t.Errorf("a warm run allocates %.2f objects and %.0f bytes, pinned at %.1f and %.0f",
							objects, bytes, pin.objects, pin.bytes)
					}
				})
			}
		}
	}
}

// TestReusedStateIsolatesRuns alternates a PageRank and a GNMF iteration on
// one engine, with a run over NaN inputs between every two — its result
// blocks go back to the engine's pool, and the process's pooled kernel and
// evaluator scratch passes through NaN — and holds every result to the bits
// of engines that run one program alone. Nothing a run reuses may carry a
// value, a count or a shape into the next.
func TestReusedStateIsolatesRuns(t *testing.T) {
	const n, bs, rows, cols, k = 300, 50, 150, 200, 8
	pr := pageRankInputs(2, n, bs)
	prProg := pageRankIteration(n, float64(pr["link"].NNZ())/(n*n))
	rng := rand.New(rand.NewSource(5))
	gn := map[string]*matrix.Grid{
		"V": randSparseGrid(rng, rows, cols, bs, 0.2),
		"W": randDenseGrid(rng, rows, k, bs),
		"H": randDenseGrid(rng, k, cols, bs),
	}
	gnProg := gnmfProgramDims(rows, cols, k, 0.2)
	// The poison run reads NaN matrices of the other two programs' shapes
	// through the same kernels: a product, a fused cell-wise tree and a
	// transposed product.
	nan := func(r, c int) *matrix.Grid {
		data := make([]float64, r*c)
		for i := range data {
			data[i] = math.NaN()
		}
		return matrix.FromDense(r, c, bs, data)
	}
	poison := expr.NewProgram()
	pa, pb := poison.Var("PA", 1, n, 1), poison.Var("PB", n, n, 1)
	poison.Assign("PR", poison.Add(poison.Scalar(matrix.ScalarMul, poison.Mul(pa, pb), 0.85), pa))
	pw, ph := poison.Var("PW", rows, k, 1), poison.Var("PH", k, cols, 1)
	poison.Assign("PG", poison.Mul(poison.Mul(pw, ph), ph.T()))
	poison.Assign("PK", poison.Mul(pw.T(), pw))

	newEngine := func(inputs ...map[string]*matrix.Grid) *Engine {
		e := New(DMac, testConfig(), bs)
		e.SetRewriter(rewrite.New())
		for _, in := range inputs {
			for name, g := range in {
				if err := e.Bind(name, g.Clone()); err != nil {
					t.Fatal(err)
				}
			}
		}
		return e
	}
	shared := newEngine(pr, gn, map[string]*matrix.Grid{
		"PA": nan(1, n), "PB": nan(n, n), "PW": nan(rows, k), "PH": nan(k, cols),
	})
	defer shared.Close()
	alone := map[*expr.Program]*Engine{prProg: newEngine(pr), gnProg: newEngine(gn)}
	for _, e := range alone {
		defer e.Close()
	}
	outputs := map[*expr.Program][]string{prProg: {"rank"}, gnProg: {"W", "H"}}
	run := func(e *Engine, p *expr.Program) {
		t.Helper()
		if _, err := e.Run(p, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		p := prProg
		if i%2 == 1 {
			p = gnProg
		}
		run(shared, poison)
		run(shared, p)
		run(alone[p], p)
		for _, name := range outputs[p] {
			if d := matrix.BitDiff(peek(t, shared, name), peek(t, alone[p], name)); d != "" {
				t.Fatalf("run %d: %s after the other program and a NaN run differs from its own engine's: %s", i, name, d)
			}
		}
	}
}
