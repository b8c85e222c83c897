package apps

import (
	"math"
	"testing"

	"dmac/internal/dist"
	"dmac/internal/engine"
	"dmac/internal/matrix"
	"dmac/internal/workload"
)

const testBS = 16

func newEngine(p engine.Planner) *engine.Engine {
	return engine.New(p, dist.Config{Workers: 4, LocalParallelism: 2}, testBS)
}

func TestGNMFAgreesAcrossEngines(t *testing.T) {
	v := workload.Ratings(1, 48, 64, testBS, 0.2)
	grids := map[engine.Planner]*matrix.Grid{}
	var comm = map[engine.Planner]int64{}
	for _, p := range []engine.Planner{engine.Local, engine.DMac, engine.SystemMLS} {
		e := newEngine(p)
		res, err := GNMF(e, v.Clone(), 6, 4, 99)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(res.PerIteration) != 4 {
			t.Fatalf("%s: %d iterations recorded", p, len(res.PerIteration))
		}
		h, ok := e.Grid("H")
		if !ok {
			t.Fatalf("%s: H missing", p)
		}
		grids[p] = h
		comm[p] = res.Total().CommBytes
	}
	if !matrix.GridEqual(grids[engine.DMac], grids[engine.Local], 1e-8) {
		t.Error("DMac H differs from local reference")
	}
	if !matrix.GridEqual(grids[engine.SystemMLS], grids[engine.Local], 1e-8) {
		t.Error("SystemML-S H differs from local reference")
	}
	if comm[engine.DMac] >= comm[engine.SystemMLS] {
		t.Errorf("DMac comm %d >= SystemML-S comm %d", comm[engine.DMac], comm[engine.SystemMLS])
	}
	if comm[engine.Local] != 0 {
		t.Errorf("local engine communicated %d bytes", comm[engine.Local])
	}
}

func TestGNMFReducesReconstructionError(t *testing.T) {
	v := workload.Ratings(2, 40, 50, testBS, 0.3)
	e := newEngine(engine.Local)
	errAt := func(iter int) float64 {
		eng := newEngine(engine.Local)
		if _, err := GNMF(eng, v.Clone(), 5, iter, 7); err != nil {
			t.Fatal(err)
		}
		w, _ := eng.Grid("W")
		h, _ := eng.Grid("H")
		wh, err := matrix.MulGrid(w, h)
		if err != nil {
			t.Fatal(err)
		}
		diff, err := matrix.CellwiseGrid(matrix.OpSub, v, wh)
		if err != nil {
			t.Fatal(err)
		}
		return matrix.FrobeniusSqGrid(diff)
	}
	_ = e
	if e1, e10 := errAt(1), errAt(10); e10 >= e1 {
		t.Errorf("GNMF error did not decrease: %v -> %v", e1, e10)
	}
}

func TestPageRankConvergesAndAgrees(t *testing.T) {
	adj := workload.PowerLawGraph(3, 150, 6, testBS)
	ranks := map[engine.Planner]*matrix.Grid{}
	for _, p := range []engine.Planner{engine.Local, engine.DMac, engine.SystemMLS} {
		e := newEngine(p)
		res, err := PageRank(e, adj.Clone(), 40, 5)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(res.PerIteration) != 40 {
			t.Fatalf("%s: iterations %d", p, len(res.PerIteration))
		}
		r, _ := e.Grid("rank")
		ranks[p] = r
	}
	// Every node has out-edges, so the stationary ranks sum to 1.
	if s := matrix.SumGrid(ranks[engine.Local]); math.Abs(s-1) > 1e-6 {
		t.Errorf("rank sum = %v, want 1", s)
	}
	// All ranks positive.
	for _, v := range ranks[engine.Local].ToDense() {
		if v <= 0 {
			t.Fatal("non-positive rank")
		}
	}
	if !matrix.GridEqual(ranks[engine.DMac], ranks[engine.Local], 1e-10) {
		t.Error("DMac ranks differ from local")
	}
	if !matrix.GridEqual(ranks[engine.SystemMLS], ranks[engine.Local], 1e-10) {
		t.Error("SystemML-S ranks differ from local")
	}
}

func TestPageRankDMacCachesLink(t *testing.T) {
	// The paper (Section 6.4): DMac caches the Column scheme of link; per
	// iteration only the small rank matrix moves. SystemML-S repartitions
	// the link matrix every iteration.
	adj := workload.PowerLawGraph(4, 200, 8, testBS)
	var perIter [2]int64
	for i, p := range []engine.Planner{engine.DMac, engine.SystemMLS} {
		e := newEngine(p)
		res, err := PageRank(e, adj.Clone(), 5, 5)
		if err != nil {
			t.Fatal(err)
		}
		// Use the last iteration (steady state).
		perIter[i] = res.PerIteration[4].CommBytes
	}
	if perIter[0]*4 > perIter[1] {
		t.Errorf("DMac steady-state comm %d should be <1/4 of SystemML-S %d", perIter[0], perIter[1])
	}
}

func TestLinRegSolvesAndAgrees(t *testing.T) {
	v := workload.SparseUniform(6, 80, 24, testBS, 0.3)
	y := workload.DenseRandom(7, 80, 1, testBS)
	ws := map[engine.Planner]*matrix.Grid{}
	var norms = map[engine.Planner]float64{}
	for _, p := range []engine.Planner{engine.Local, engine.DMac, engine.SystemMLS} {
		e := newEngine(p)
		res, err := LinReg(e, v.Clone(), y.Clone(), 1e-6, 12, 11)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		w, ok := e.Grid("w")
		if !ok {
			t.Fatalf("%s: w missing", p)
		}
		ws[p] = w
		norms[p] = res.Scalars["norm_r2"]
	}
	if !matrix.GridEqual(ws[engine.DMac], ws[engine.Local], 1e-6) {
		t.Error("DMac w differs from local")
	}
	if !matrix.GridEqual(ws[engine.SystemMLS], ws[engine.Local], 1e-6) {
		t.Error("SystemML-S w differs from local")
	}
	// CG on a full-column-rank system drives the residual toward zero.
	e := newEngine(engine.Local)
	res1, err := LinReg(e, v.Clone(), y.Clone(), 1e-6, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	if norms[engine.Local] >= res1.Scalars["norm_r2"] {
		t.Errorf("residual did not decrease: %v -> %v", res1.Scalars["norm_r2"], norms[engine.Local])
	}
}

func TestLinRegValidatesShapes(t *testing.T) {
	e := newEngine(engine.Local)
	v := workload.SparseUniform(6, 30, 10, testBS, 0.3)
	badY := workload.DenseRandom(7, 10, 1, testBS)
	if _, err := LinReg(e, v, badY, 0, 2, 1); err == nil {
		t.Error("expected shape error for y")
	}
}

func TestCFAgreesAndNormalizes(t *testing.T) {
	r := workload.Ratings(9, 40, 60, testBS, 0.15)
	preds := map[engine.Planner]*matrix.Grid{}
	for _, p := range []engine.Planner{engine.Local, engine.DMac, engine.SystemMLS} {
		e := newEngine(p)
		res, err := CF(e, r.Clone())
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.Scalars["result_norm"] <= 0 {
			t.Fatalf("%s: norm %v", p, res.Scalars["result_norm"])
		}
		pr, ok := e.Grid("predict")
		if !ok {
			t.Fatalf("%s: predict missing", p)
		}
		preds[p] = pr
	}
	if !matrix.GridEqual(preds[engine.DMac], preds[engine.Local], 1e-9) {
		t.Error("DMac predictions differ from local")
	}
	if !matrix.GridEqual(preds[engine.SystemMLS], preds[engine.Local], 1e-9) {
		t.Error("SystemML-S predictions differ from local")
	}
	// Normalized: unit Frobenius norm.
	if n := math.Sqrt(matrix.FrobeniusSqGrid(preds[engine.Local])); math.Abs(n-1) > 1e-9 {
		t.Errorf("predictions have norm %v, want 1", n)
	}
	// predict == (R Rᵀ R) / ‖R Rᵀ R‖.
	rrt, _ := matrix.MulGrid(r, r.Transpose())
	rrtr, _ := matrix.MulGrid(rrt, r)
	scale := 1 / math.Sqrt(matrix.FrobeniusSqGrid(rrtr))
	want := matrix.ScalarGrid(matrix.ScalarMul, rrtr, scale)
	if !matrix.GridEqual(preds[engine.Local], want, 1e-9) {
		t.Error("predictions do not match R RᵀR normalized")
	}
}

func TestSVDSingularValues(t *testing.T) {
	// Build V with known singular values: a diagonal-ish matrix.
	const n, d = 24, 8
	coords := []matrix.Coord{}
	want := []float64{9, 7, 5, 4, 3, 2.5, 1.5, 0.5}
	for i, s := range want {
		coords = append(coords, matrix.Coord{Row: i, Col: i, Val: s})
	}
	v := matrix.FromCoords(n, d, testBS, coords)
	for _, p := range []engine.Planner{engine.Local, engine.DMac, engine.SystemMLS} {
		e := newEngine(p)
		_, sv, err := SVD(e, v.Clone(), d, 21)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(sv) == 0 {
			t.Fatalf("%s: no singular values", p)
		}
		// Lanczos with full rank recovers the spectrum; compare the top
		// values (the tail may be perturbed by breakdown handling).
		for i := 0; i < 3 && i < len(sv); i++ {
			if math.Abs(sv[i]-want[i]) > 1e-6 {
				t.Errorf("%s: sigma[%d] = %v, want %v", p, i, sv[i], want[i])
			}
		}
	}
}

func TestSVDTraceIdentity(t *testing.T) {
	// With rank = d, the sum of squared singular values equals ‖V‖F².
	v := workload.SparseUniform(13, 30, 6, testBS, 0.5)
	e := newEngine(engine.Local)
	_, sv, err := SVD(e, v.Clone(), 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, s := range sv {
		sum += s * s
	}
	want := matrix.FrobeniusSqGrid(v)
	if math.Abs(sum-want) > 1e-6*want {
		t.Errorf("sum of squared singular values = %v, want %v", sum, want)
	}
}

func TestSVDRankValidation(t *testing.T) {
	v := workload.SparseUniform(13, 10, 5, testBS, 0.5)
	e := newEngine(engine.Local)
	if _, _, err := SVD(e, v, 0, 1); err == nil {
		t.Error("rank 0 must fail")
	}
	if _, _, err := SVD(e, v, 6, 1); err == nil {
		t.Error("rank > d must fail")
	}
}

func TestEigTridiag(t *testing.T) {
	// Diagonal matrix.
	eig, err := EigTridiag([]float64{3, 1, 2}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1, 2, 3} {
		if math.Abs(eig[i]-want) > 1e-9 {
			t.Errorf("eig[%d] = %v, want %v", i, eig[i], want)
		}
	}
	// 2x2 analytic: [[a, b], [b, c]].
	a, b, c := 2.0, 1.5, -1.0
	mean, diff := (a+c)/2, (a-c)/2
	r := math.Sqrt(diff*diff + b*b)
	eig, err = EigTridiag([]float64{a, c}, []float64{b})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eig[0]-(mean-r)) > 1e-9 || math.Abs(eig[1]-(mean+r)) > 1e-9 {
		t.Errorf("2x2 eig = %v, want [%v %v]", eig, mean-r, mean+r)
	}
	// Error and degenerate cases.
	if _, err := EigTridiag([]float64{1, 2}, []float64{}); err == nil {
		t.Error("expected length error")
	}
	if eig, err := EigTridiag(nil, nil); err != nil || len(eig) != 0 {
		t.Error("empty input should be fine")
	}
	if eig, _ := EigTridiag([]float64{5}, []float64{}); math.Abs(eig[0]-5) > 1e-9 {
		t.Errorf("1x1 eig = %v", eig)
	}
}

func TestResultTotal(t *testing.T) {
	r := &Result{PerIteration: []engine.Metrics{
		{Snapshot: dist.Snapshot{CommBytes: 10}, WallSeconds: 1},
		{Snapshot: dist.Snapshot{CommBytes: 20}, WallSeconds: 2},
	}}
	tot := r.Total()
	if tot.CommBytes != 30 || tot.WallSeconds != 3 {
		t.Errorf("Total = %+v", tot)
	}
}

// TestAppsCutGeneratedInputsAtTheDataSide runs every application that
// generates inputs of its own (factors, rank and teleport vectors, weights,
// Lanczos vectors) on a fresh session created without a block side, with
// data cut at 37: each binds its generated inputs at the data's side and
// gives the bits of a session created at 37.
func TestAppsCutGeneratedInputsAtTheDataSide(t *testing.T) {
	const side = 37
	v := workload.SparseUniform(8, 100, 80, side, 0.2)
	y := workload.DenseRandom(9, 100, 1, side)
	lv, ly, _ := LabeledData(10, 100, 80, side, 0.2)
	adj := workload.PowerLawGraph(11, 90, 5, side)
	cases := []struct {
		name, out string
		run       func(e *engine.Engine) error
	}{
		{"GNMF", "H", func(e *engine.Engine) error { _, err := GNMF(e, v.Clone(), 6, 2, 1); return err }},
		{"PageRank", "rank", func(e *engine.Engine) error { _, err := PageRank(e, adj.Clone(), 2, 2); return err }},
		{"LinReg", "w", func(e *engine.Engine) error { _, err := LinReg(e, v.Clone(), y.Clone(), 1e-6, 2, 3); return err }},
		{"LogReg", "w", func(e *engine.Engine) error { _, err := LogReg(e, lv.Clone(), ly.Clone(), 0.5, 1e-4, 2, 4); return err }},
		{"SVD", "vc", func(e *engine.Engine) error { _, _, err := SVD(e, v.Clone(), 4, 5); return err }},
	}
	cfg := dist.Config{Workers: 4, LocalParallelism: 2}
	for _, app := range cases {
		fresh, ref := engine.New(engine.DMac, cfg, 0), engine.New(engine.DMac, cfg, side)
		for _, e := range []*engine.Engine{fresh, ref} {
			if err := app.run(e); err != nil {
				t.Fatalf("%s: %v", app.name, err)
			}
		}
		if fresh.BlockSize() != side {
			t.Errorf("%s: session block size %d after binding side-%d data", app.name, fresh.BlockSize(), side)
		}
		got, _ := fresh.Grid(app.out)
		want, _ := ref.Grid(app.out)
		if got == nil || want == nil || got.BlockSize() != side || matrix.BitDiff(got, want) != "" {
			t.Errorf("%s: %s differs from a session created at side %d", app.name, app.out, side)
		}
	}
}
