package core

import (
	"slices"
	"testing"

	"dmac/internal/cost"
	"dmac/internal/dep"
	"dmac/internal/expr"
	"dmac/internal/matrix"
)

// gnmfFullIteration builds the complete GNMF iteration of Code 1 at the
// paper's Netflix shape (V = 17770 x 480189 movies x users, k = 200) — the
// program behind Figure 3.
func gnmfFullIteration() *expr.Program {
	const (
		rows = 17770
		cols = 480189
		k    = 200
	)
	p := expr.NewProgram()
	V := p.Var("V", rows, cols, 0.01)
	W := p.Var("W", rows, k, 1)
	H := p.Var("H", k, cols, 1)
	WtV := p.Mul(W.T(), V)
	WtW := p.Mul(W.T(), W)
	WtWH := p.Mul(WtW, H)
	newH := p.CellDiv(p.CellMul(H, WtV), WtWH)
	VHt := p.Mul(V, newH.T())
	HHt := p.Mul(newH, newH.T())
	WHHt := p.Mul(W, HHt)
	newW := p.CellDiv(p.CellMul(W, VHt), WHHt)
	p.Assign("H", newH)
	p.Assign("W", newW)
	return p
}

// TestGoldenGNMFPlanFigure3 pins the plan the generator produces for the
// Figure 3 scenario: 5 un-interleaved stages, the Wᵀ broadcast shared by
// both early multiplications, the H-update cell operators riding Column
// schemes for free, and CPMM for the W-update multiplications. Total
// estimated communication is pinned exactly; a change to this value is a
// planner behaviour change and must be deliberate.
func TestGoldenGNMFPlanFigure3(t *testing.T) {
	cfg := Config{
		Workers: 4,
		Vars: map[string][]dep.Scheme{
			"V": {dep.Col},
			"W": {dep.Row},
			"H": {dep.Col},
		},
	}
	plan, err := Generate(gnmfFullIteration(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Check(); err != nil {
		t.Fatalf("%v\n%s", err, plan)
	}
	if plan.Stages != 5 {
		t.Errorf("stages = %d, want 5 (Figure 3)\n%s", plan.Stages, plan)
	}
	// Strategy census.
	counts := map[Strategy]int{}
	broadcasts, partitions := 0, 0
	for _, op := range plan.Ops {
		switch op.Kind {
		case OpCompute:
			counts[op.Strategy]++
		case OpBroadcast:
			broadcasts++
		case OpPartition:
			partitions++
		}
	}
	if counts[RMM1] != 4 || counts[CPMM] != 2 {
		t.Errorf("multiplication strategies = %v, want 4 RMM1 + 2 CPMM\n%s", counts, plan)
	}
	if counts[CellRow]+counts[CellCol] != 4 {
		t.Errorf("cell strategies = %v, want 4 aligned cell ops", counts)
	}
	// Exactly two explicit broadcasts (Wᵀ and WᵀW) and one partition (the
	// final WHHᵀ alignment) — everything else is dependency reuse.
	if broadcasts != 2 || partitions != 1 {
		t.Errorf("broadcasts = %d, partitions = %d, want 2 and 1\n%s", broadcasts, partitions, plan)
	}
	// Pinned total: N|Wᵀ| + N|WᵀW| + CPMM aggregations + final partition.
	const want = 258448000
	if got := plan.TotalCommBytes(); got != want {
		t.Errorf("total comm = %d, want %d (golden)\n%s", got, want, plan)
	}
	// The whole H update communicates only through the two broadcasts:
	// every cell op on the H path has Reference inputs.
	for _, op := range plan.Ops {
		if op.Kind == OpCompute && op.Node.Kind == expr.KindCell && op.Strategy == CellCol {
			for j, d := range op.InDeps {
				if d != dep.Reference {
					t.Errorf("H-update cell input %d has dependency %s, want reference", j, d)
				}
			}
		}
	}
}

// TestGoldenGNMFBaselineWorse pins the baseline's behaviour on the same
// program: every operator repartitions, so its estimated traffic exceeds
// DMac's by a large factor.
func TestGoldenGNMFBaselineWorse(t *testing.T) {
	cfg := Config{
		Workers: 4,
		Vars: map[string][]dep.Scheme{
			"V": {dep.Col}, "W": {dep.Row}, "H": {dep.Col},
		},
	}
	prog := gnmfFullIteration()
	dm, err := Generate(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := GenerateSystemMLS(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(base.TotalCommBytes()) / float64(dm.TotalCommBytes())
	// The paper reports ~27x over a full run; the per-iteration estimate at
	// the paper's shape lands in the same regime.
	if ratio < 8 {
		t.Errorf("baseline/DMac comm ratio = %.1f, want >= 8", ratio)
	}
}

// TestGoldenEstimatorAtPaperShape pins the worst-case size estimates that
// drive the Figure 3 decisions.
func TestGoldenEstimatorAtPaperShape(t *testing.T) {
	// |Wᵀ| (dense 200 x 17770) is far smaller than |WᵀV| (dense 200 x
	// 480189): that inequality is what makes RMM1 optimal for the first
	// multiplication (Section 4.2.4).
	w := cost.SizeBytes(17770, 200, 1)
	wtv := cost.SizeBytes(200, 480189, 1)
	if w >= wtv {
		t.Errorf("|W| = %d should be below |WᵀV| = %d", w, wtv)
	}
	if w != matrix.DenseMemBytes(17770, 200) {
		t.Errorf("dense estimate mismatch: %d", w)
	}
}

// pageRankIteration builds one iteration of Code 2 over session variables
// link, rank and D — the program behind Figure 8.
func pageRankIteration() *expr.Program {
	const n = 1000
	p := expr.NewProgram()
	link := p.Var("link", n, n, 0.01)
	rank := p.Var("rank", 1, n, 1)
	d := p.Var("D", 1, n, 1)
	walked := p.Scalar(matrix.ScalarMul, p.Mul(rank, link), 0.85)
	teleport := p.Scalar(matrix.ScalarMul, d, 0.15)
	p.Assign("rank", p.Add(walked, teleport))
	return p
}

// TestGoldenLiveAfter pins the live set after every stage of the two golden
// plans, checked by hand against their op lists: a value is live iff a later
// stage reads it, it is an instance of an assigned matrix (newH = m7, newW =
// m12; new rank = m6), or it is a cacheable instance of a variable the
// program leaves alone (V = m0; link = m0, D = m2).
func TestGoldenLiveAfter(t *testing.T) {
	cases := []struct {
		name string
		prog *expr.Program
		vars map[string][]dep.Scheme
		want [][]string // index = stage
	}{
		{
			name: "gnmf",
			prog: gnmfFullIteration(),
			vars: map[string][]dep.Scheme{"V": {dep.Col}, "W": {dep.Row}, "H": {dep.Col}},
			want: [][]string{
				nil,
				{"m0(c)", "m1(r)", "m1ᵀ(c)", "m2(c)"},
				{"m0(c)", "m1(r)", "m4(c)", "m2(c)", "m6(c)", "m1(b)"},
				{"m0(c)", "m1(r)", "m7(c)", "m7ᵀ(r)", "m1(b)"},
				{"m0(c)", "m7(c)", "m7ᵀ(r)", "m10(c)", "m11(r)"},
				{"m0(c)", "m7(c)", "m7ᵀ(r)", "m12(r)"},
			},
		},
		{
			name: "pagerank",
			prog: pageRankIteration(),
			vars: map[string][]dep.Scheme{"link": {dep.Col}, "rank": {dep.Broadcast}, "D": {dep.Broadcast}},
			want: [][]string{
				nil,
				{"m0(c)", "m2(b)", "m4(c)", "m2(r)", "m5(r)"},
				{"m0(c)", "m2(b)", "m2(r)", "m6(r)"},
			},
		},
	}
	for _, c := range cases {
		plan, err := Generate(c.prog, Config{Workers: 4, Vars: c.vars})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if plan.Stages != len(c.want)-1 {
			t.Fatalf("%s: %d stages, want %d\n%s", c.name, plan.Stages, len(c.want)-1, plan)
		}
		for stage, want := range c.want {
			var got []string
			for _, id := range plan.LiveAfter(stage) {
				got = append(got, plan.Value(id).String())
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s: LiveAfter(%d) = %q, want %q\n%s", c.name, stage, got, want, plan)
			}
		}
	}
}
