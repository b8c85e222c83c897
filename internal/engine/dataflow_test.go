package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"testing"

	"dmac/internal/core"
	"dmac/internal/cost"
	"dmac/internal/dist"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/obs"
)

// reaches reports whether a path of After edges leads from operator from to
// operator to of one stage.
func reaches(ops []*core.Op, from, to int) bool {
	if from == to {
		return true
	}
	for _, d := range ops[to].After {
		if d >= from && reaches(ops, from, d) {
			return true
		}
	}
	return false
}

// mulOf finds the stage and position of the multiplication whose operands
// are the given nodes, in the given orientations.
func mulOf(t *testing.T, plan *core.Plan, a, b expr.Ref) (stage, pos int) {
	t.Helper()
	for s := 1; s <= plan.Stages; s++ {
		for j, op := range plan.StageOps(s) {
			if op.Kind != core.OpCompute || op.Node.Kind != expr.KindMul {
				continue
			}
			if in := op.Node.Inputs; in[0] == a && in[1] == b {
				return s, j
			}
		}
	}
	t.Fatalf("no multiplication %s · %s in the plan:\n%s", a.Node.Label(), b.Node.Label(), plan)
	return 0, 0
}

// gnmfProducts are GNMF's four independent pairs of products: Wᵀ·V and Wᵀ·W
// both read only W and V; V·Hᵀ and H·Hᵀ both read only the updated H.
func gnmfProducts(p *expr.Program) (wtv, wtw, vht, hht [2]expr.Ref) {
	var v, w, newH expr.Ref
	for _, n := range p.Nodes() {
		switch {
		case n.Kind == expr.KindVar && n.Name == "V":
			v = expr.Ref{Node: n}
		case n.Kind == expr.KindVar && n.Name == "W":
			w = expr.Ref{Node: n}
		}
	}
	for _, a := range p.Assignments() {
		if a.Name == "H" {
			newH = a.Ref
		}
	}
	return [2]expr.Ref{w.T(), v}, [2]expr.Ref{w.T(), w}, [2]expr.Ref{v, newH.T()}, [2]expr.Ref{newH, newH.T()}
}

// TestStageDAGEdges: the planner's stage graphs let GNMF's independent
// products overlap — no path joins Wᵀ·V and Wᵀ·W, or V·Hᵀ and H·Hᵀ, in the
// first plan or the converged ones — and, once the session holds the link
// matrix partitioned, leave every PageRank stage a chain, each operator
// waiting for the one before it.
func TestStageDAGEdges(t *testing.T) {
	e := New(DMac, testConfig(), tBS)
	bindGNMF(t, e)
	prog := gnmfProgram(0.3)
	for iter := 0; iter < 3; iter++ {
		plan, err := e.Plan(prog)
		if err != nil {
			t.Fatal(err)
		}
		wtv, wtw, vht, hht := gnmfProducts(prog)
		for _, pair := range [][2][2]expr.Ref{{wtv, wtw}, {vht, hht}} {
			s1, a := mulOf(t, plan, pair[0][0], pair[0][1])
			s2, b := mulOf(t, plan, pair[1][0], pair[1][1])
			if s1 != s2 {
				continue
			}
			ops := plan.StageOps(s1)
			if reaches(ops, min(a, b), max(a, b)) {
				t.Errorf("iteration %d: stage %d joins %s and %s:\n%s", iter, s1, ops[a].Node.Label(), ops[b].Node.Label(), plan)
			}
		}
		if _, err := e.Run(prog, nil); err != nil {
			t.Fatal(err)
		}
	}

	pr := New(DMac, testConfig(), tBS)
	bindPageRank(t, pr)
	prog = pageRankProgram()
	for iter := 0; iter < 3; iter++ {
		plan, err := pr.Plan(prog)
		if err != nil {
			t.Fatal(err)
		}
		for s := 1; s <= plan.Stages && iter > 0; s++ {
			ops := plan.StageOps(s)
			for j := 1; j < len(ops); j++ {
				if !reaches(ops, j-1, j) {
					t.Errorf("iteration %d: stage %d is not a chain at op %d:\n%s", iter, s, j, plan)
				}
			}
		}
		if _, err := pr.Run(prog, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStageSpansUnderConcurrency: with operators overlapping, every op span
// hangs under its attempt span, every task batch and comm event under the
// op span whose call made it, and V·Hᵀ's and H·Hᵀ's batches under their own
// ops, on every planner (SystemML-S's shuffle transposes run batches of their
// own). Each stage record carries its operators' wall time.
func TestStageSpansUnderConcurrency(t *testing.T) {
	for _, planner := range []Planner{DMac, SystemMLS, Local} {
		t.Run(planner.String(), func(t *testing.T) { checkStageSpans(t, planner) })
	}
}

func checkStageSpans(t *testing.T, planner Planner) {
	e := New(planner, testConfig(), tBS)
	tr := obs.NewTracer()
	e.SetObserver(tr, nil)
	bindGNMF(t, e)
	prog := gnmfProgram(0.3)
	for iter := 0; iter < 3; iter++ {
		tr.Reset()
		m, err := e.Run(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		var opSeconds float64
		for _, rec := range m.PerStage {
			opSeconds += rec.OpSeconds
			if runtime.GOMAXPROCS(0) == 1 && rec.OpSeconds > rec.WallSeconds {
				t.Errorf("stage %d: op seconds %v above its wall %v on one P", rec.Stage, rec.OpSeconds, rec.WallSeconds)
			}
		}
		if opSeconds <= 0 {
			t.Errorf("iteration %d: no op seconds in %+v", iter, m.PerStage)
		}

		byID := make(map[obs.SpanID]obs.Span)
		for _, s := range tr.Spans() {
			byID[s.ID] = s
		}
		batchesUnder := make(map[obs.SpanID]int)
		for _, s := range tr.Spans() {
			parent := byID[s.Parent]
			switch s.Cat {
			case "op":
				if parent.Name != "attempt" {
					t.Errorf("op span %q hangs under %q, want its attempt", s.Name, parent.Name)
				}
			case "sched", "comm":
				if parent.Cat != "op" {
					t.Errorf("%s span %q hangs under %q, want the op that made it", s.Cat, s.Name, parent.Name)
				}
				if s.Cat == "sched" {
					batchesUnder[s.Parent]++
				}
			}
		}
		plan, err := e.Plan(prog)
		if err != nil {
			t.Fatal(err)
		}
		_, _, vht, hht := gnmfProducts(prog)
		for _, pair := range [][2]expr.Ref{vht, hht} {
			s, j := mulOf(t, plan, pair[0], pair[1])
			name := "compute " + plan.StageOps(s)[j].Node.Label()
			found := false
			for _, sp := range tr.Spans() {
				if sp.Cat == "op" && sp.Name == name {
					found = true
					if batchesUnder[sp.ID] == 0 {
						t.Errorf("iteration %d: op %q has no task batch of its own", iter, name)
					}
				}
			}
			if !found {
				t.Errorf("iteration %d: no op span %q", iter, name)
			}
		}
	}
}

// maskTimes drops what a clock measures from m, leaving what the model
// charges and the run counts.
func maskTimes(m Metrics) Metrics {
	m.WallSeconds, m.CheckpointSeconds, m.CheckpointWaitSeconds = 0, 0, 0
	m.PerStage = append([]StageMetrics(nil), m.PerStage...)
	for i := range m.PerStage {
		m.PerStage[i].WallSeconds, m.PerStage[i].OpSeconds = 0, 0
	}
	return m
}

// atProcs runs f at each GOMAXPROCS setting the stage runner is held to.
func atProcs(t *testing.T, f func(procs int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		f(procs)
	}
}

// TestStageRunnerDeterministic: however the operators of a stage interleave,
// a run computes the bits of the direct evaluation and charges the model
// numbers of every other run to the bit — GNMF over a sparse V and random
// programs over sparse leaves, whose fractional FLOPs make the order of the
// sum show, on all three planners, 20 times each at one, two and four Ps.
func TestStageRunnerDeterministic(t *testing.T) {
	repeats, programs := 20, 100
	if raceEnabled {
		repeats, programs = 4, 25
	}
	type outcome struct {
		grids   map[string]*matrix.Grid
		scalars map[string]float64
		metrics Metrics
	}
	check := func(label string, want map[string]*matrix.Grid, wantScalars map[string]float64, run func() outcome) {
		t.Helper()
		var first *Metrics
		atProcs(t, func(procs int) {
			for rep := 0; rep < repeats; rep++ {
				got := run()
				for name, g := range want {
					if matrix.BitDiff(got.grids[name], g) != "" {
						t.Fatalf("%s at %d Ps, repeat %d: %s differs from the direct evaluation", label, procs, rep, name)
					}
				}
				for name, v := range wantScalars {
					if w := got.scalars[name]; math.Abs(w-v) > 1e-6*(1+math.Abs(v)) {
						t.Fatalf("%s at %d Ps, repeat %d: scalar %s = %v, direct %v", label, procs, rep, name, w, v)
					}
				}
				if first == nil {
					first = &got.metrics
				} else if !reflect.DeepEqual(got.metrics, *first) {
					t.Fatalf("%s at %d Ps, repeat %d: metrics moved:\n got %+v\nwant %+v", label, procs, rep, got.metrics, *first)
				}
			}
		})
	}
	runOnBS := func(planner Planner, data map[string]*matrix.Grid, prog *expr.Program, bs int) outcome {
		e := New(planner, testConfig(), bs)
		for name, g := range data {
			if err := e.Bind(name, g.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		var out outcome
		m, err := e.Run(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		out.metrics = maskTimes(m)
		out.grids, out.scalars = map[string]*matrix.Grid{}, map[string]float64{}
		for _, a := range prog.Assignments() {
			out.grids[a.Name], _ = e.Grid(a.Name)
		}
		for _, s := range prog.ScalarOuts() {
			out.scalars[s.Name], _ = e.Scalar(s.Name)
		}
		return out
	}

	// Wᵀ·V charges 2·|W|·(nnz(V)/rows) FLOPs, which rounds to a whole
	// number for some nnz(V) and not for others: take a V it does not.
	const rows, cols, k = 31, 43, 5
	var v *matrix.Grid
	rng := rand.New(rand.NewSource(42))
	for {
		v = randSparseGrid(rng, rows, cols, tBS, 0.3)
		if f := cost.MulFLOPs(rows*k, v.NNZ(), rows); f != math.Trunc(f) {
			break
		}
	}
	gnmfData := map[string]*matrix.Grid{
		"V": v,
		"W": randDenseGrid(rng, rows, k, tBS),
		"H": randDenseGrid(rng, k, cols, tBS),
	}
	gnmf := gnmfProgramDims(rows, cols, k, 0.3)
	want, _, err := evalDirect(gnmf, gnmfData, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, planner := range []Planner{DMac, SystemMLS, Local} {
		check(fmt.Sprintf("gnmf on %s", planner), want, nil, func() outcome { return runOnBS(planner, gnmfData, gnmf, tBS) })
	}

	// A cell-wise operator charges after its kernel: here a long one over A,
	// which the later, independent Z = B + B and its product Z·C overtake.
	overtake := expr.NewProgram()
	b := overtake.Var("B", 300, 300, 0.03)
	zc := overtake.Add(b, b)
	overtake.Assign("X", overtake.Scalar(matrix.ScalarMul, overtake.Var("A", 768, 768, 1), 3))
	overtake.Assign("Y", overtake.Mul(zc, overtake.Var("C", 300, 4, 0.5)))
	// Take a C for which adding the three charges in the overtaken order
	// rounds differently from plan order.
	rng = rand.New(rand.NewSource(7))
	overtakeData := map[string]*matrix.Grid{
		"A": randDenseGrid(rng, 768, 768, 64),
		"B": randSparseGrid(rng, 300, 300, 64, 0.03),
	}
	x, z := cost.ScalarFLOPs(768*768), cost.CellwiseFLOPs(300, 300)
	for {
		overtakeData["C"] = randSparseGrid(rng, 300, 4, 64, 0.5)
		y := cost.MulFLOPs(overtakeData["B"].NNZ(), overtakeData["C"].NNZ(), 300)
		if (x+z)+y != (z+y)+x {
			break
		}
	}
	want, _, err = evalDirect(overtake, overtakeData, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("a product overtaking a cell-wise operator", want, nil, func() outcome {
		return runOnBS(Local, overtakeData, overtake, 64)
	})

	for seed := int64(0); seed < int64(programs); seed++ {
		rng := rand.New(rand.NewSource(seed + 4500))
		prog, _ := core.RandomProgram(rng)
		// Sparse leaves make products charge fractional FLOPs.
		data := make(map[string]*matrix.Grid)
		for _, n := range prog.Nodes() {
			if (n.Kind == expr.KindVar || n.Kind == expr.KindLoad) && data[n.Name] == nil {
				data[n.Name] = randSparseGrid(rng, n.Rows, n.Cols, tBS, 0.5)
			}
		}
		want, wantScalars, err := evalDirect(prog, data, nil)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		for _, planner := range []Planner{DMac, SystemMLS, Local} {
			check(fmt.Sprintf("seed %d on %s", seed, planner), want, wantScalars, func() outcome { return runOnBS(planner, data, prog, tBS) })
		}
	}
}

// killedAt matches the operator index in the error of an attempt an
// operator failed.
var killedAt = regexp.MustCompile(`op (\d+) \(`)

// stopsAtKill checks that no operator started after the one that failed an
// attempt, and returns how many such attempts the trace holds.
func stopsAtKill(t *testing.T, label string, tr *obs.Tracer) int {
	t.Helper()
	started := make(map[obs.SpanID]int)
	for _, s := range tr.Spans() {
		if s.Cat == "op" {
			started[s.Parent]++
		}
	}
	killed := 0
	for _, s := range tr.Spans() {
		a, ok := s.Attr("error")
		if s.Name != "attempt" || !ok {
			continue
		}
		m := killedAt.FindStringSubmatch(a.Str)
		if m == nil {
			continue // a boundary kill, or a kill no operator took
		}
		killed++
		if i, _ := strconv.Atoi(m[1]); started[s.ID] != i+1 {
			t.Errorf("%s: an attempt failed at op %d but started %d ops: %s", label, i, started[s.ID], a.Str)
		}
	}
	return killed
}

// TestFaultPlanReplaysExactly: a seeded fault plan of task kills and block
// corruption fails the same operators and corrupts the same transfers
// however a stage's operators interleave, with checkpoint recovery and
// without: the run's metrics, its replayed stages and its error are those of
// every other run, every corruption is detected, and no operator starts
// after the one that takes a kill.
func TestFaultPlanReplaysExactly(t *testing.T) {
	repeats := 10
	if raceEnabled {
		repeats = 3
	}
	plans := map[string]dist.Config{
		"task-kills+corrupt": {Faults: dist.FaultPlan{Seed: 17, Rate: 0.3, TaskFaults: true, CorruptRate: 0.3}},
		"scripted": {Faults: dist.FaultPlan{Events: []dist.FaultEvent{
			{Stage: 4, Worker: 2, Attempt: 0, Kind: dist.FaultKillTask},
			{Stage: 2, Worker: 1, Attempt: 0, Kind: dist.FaultCorrupt},
			{Stage: 4, Worker: 3, Attempt: 0, Kind: dist.FaultCorrupt},
		}}},
		// Retries run out: the error itself must replay.
		"exhausted": {Faults: dist.FaultPlan{Seed: 3, Rate: 1, TaskFaults: true}, MaxStageRetries: 1},
	}
	killed := 0
	for name, plan := range plans {
		for _, ckpt := range []bool{false, true} {
			label := fmt.Sprintf("%s, checkpoints %v", name, ckpt)
			var first *[2]string
			var firstMetrics []Metrics
			atProcs(t, func(procs int) {
				for rep := 0; rep < repeats; rep++ {
					cfg := testConfig()
					cfg.Faults, cfg.MaxStageRetries = plan.Faults, plan.MaxStageRetries
					e := New(DMac, cfg, tBS)
					tr := obs.NewTracer()
					e.SetObserver(tr, nil)
					if ckpt {
						if err := e.SetCheckpoint(t.TempDir(), CheckpointPolicy{Interval: 1}); err != nil {
							t.Fatal(err)
						}
					}
					bindGNMF(t, e)
					var metrics []Metrics
					var errText string
					for iter := 0; iter < 3 && errText == ""; iter++ {
						m, err := e.Run(gnmfProgram(0.3), nil)
						if err != nil {
							errText = err.Error()
							break
						}
						if m.CorruptionsInjected != m.CorruptionsDetected {
							t.Errorf("%s: %d corruptions injected, %d detected", label, m.CorruptionsInjected, m.CorruptionsDetected)
						}
						metrics = append(metrics, maskTimes(m))
					}
					e.Close()
					killed += stopsAtKill(t, label, tr)
					got := [2]string{errText, fmt.Sprint(e.Cluster().DeadWorkers())}
					if first == nil {
						first, firstMetrics = &got, metrics
						continue
					}
					if got != *first {
						t.Fatalf("%s at %d Ps, repeat %d: error and dead workers %q, want %q", label, procs, rep, got, *first)
					}
					if !reflect.DeepEqual(metrics, firstMetrics) {
						t.Fatalf("%s at %d Ps, repeat %d: metrics moved:\n got %+v\nwant %+v", label, procs, rep, metrics, firstMetrics)
					}
				}
			})
			if name == "exhausted" && (first == nil || first[0] == "") {
				t.Errorf("%s: retries never ran out", label)
			}
		}
	}
	if killed == 0 {
		t.Error("no operator ever took a task kill")
	}
}
