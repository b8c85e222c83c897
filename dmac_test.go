package dmac_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"dmac"
)

// TestPublicAPIQuickstart exercises the README quick-start path end to end
// through the facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	const rows, cols, bs = 300, 120, 32
	s := dmac.NewSession(dmac.PlannerDMac, dmac.ClusterConfig{Workers: 4, LocalParallelism: 2}, bs)
	v := dmac.SparseUniform(1, rows, cols, bs, 0.05)
	if err := s.Bind("V", v); err != nil {
		t.Fatal(err)
	}
	p := dmac.NewProgram()
	V := p.Var("V", rows, cols, 0.05)
	gram := p.Mul(V.T(), V)
	p.Assign("G", gram)
	p.Sum("total", gram)

	plan, err := s.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.String(), "compute") {
		t.Error("plan explain missing compute op")
	}
	m, err := s.Run(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.CommBytes <= 0 || m.Stages < 2 {
		t.Errorf("metrics: %+v", m)
	}
	g, ok := s.Grid("G")
	if !ok || g.Rows() != cols || g.Cols() != cols {
		t.Fatalf("G missing or wrong shape")
	}
	// Verify the Gram matrix numerically at a few cells.
	total, _ := s.Scalar("total")
	check := 0.0
	for i := 0; i < cols; i++ {
		for j := 0; j < cols; j++ {
			check += g.At(i, j)
		}
	}
	if math.Abs(total-check) > 1e-6 {
		t.Errorf("sum scalar %v != matrix sum %v", total, check)
	}
	// Symmetry of VᵀV.
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if math.Abs(g.At(i, j)-g.At(j, i)) > 1e-9 {
				t.Fatalf("Gram not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

// TestFacadeHelpers covers the re-exported constructors and registries.
func TestFacadeHelpers(t *testing.T) {
	// Eq. 3 on the session's 4 x 8 threads for a dense matrix that pays for
	// all of them; one whole block for 1 000 entries, which pay for one.
	s := dmac.NewSession(dmac.PlannerDMac, dmac.ClusterConfig{Workers: 4, LocalParallelism: 8}, 0)
	if got := s.BlockSizeFor(1000, 1000, 1); got != 176 {
		t.Errorf("BlockSizeFor(1000, 1000, 1) = %d, want sqrt(1e6 / 32) = 176", got)
	}
	if got := s.BlockSizeFor(1000, 1000, 0.001); got != 1000 {
		t.Errorf("BlockSizeFor(1000, 1000, 0.001) = %d, want 1000", got)
	}
	g := dmac.FromDense(2, 2, 2, []float64{1, 2, 3, 4})
	if g.At(1, 0) != 3 {
		t.Error("FromDense wrong")
	}
	sp := dmac.FromCoords(3, 3, 2, []dmac.Coord{{Row: 2, Col: 2, Val: 5}})
	if sp.At(2, 2) != 5 {
		t.Error("FromCoords wrong")
	}
	if len(dmac.Graphs) != 4 {
		t.Error("graph registry incomplete")
	}
	if _, ok := dmac.GraphByName("LiveJournal"); !ok {
		t.Error("GraphByName failed")
	}
	if dmac.Netflix.Movies != 17770 {
		t.Error("Netflix spec wrong")
	}
	link := dmac.RowNormalize(dmac.PowerLawGraph(1, 100, 4, 32))
	if link.Rows() != 100 {
		t.Error("RowNormalize wrong shape")
	}
}

// TestRewriterWithConfig: a rewriter whose config disables chain reordering
// leaves (AB)C as written, where NewRewriter reorders it to A(BC).
func TestRewriterWithConfig(t *testing.T) {
	p := dmac.NewProgram()
	a, b, c := p.Var("A", 96, 6, 1), p.Var("B", 6, 96, 1), p.Var("C", 96, 6, 1)
	p.Assign("out", p.Mul(p.Mul(a, b), c))
	off := dmac.NewRewriterWithConfig(dmac.RewriterConfig{DisableChainReorder: true})
	for _, rw := range []*dmac.Rewriter{dmac.NewRewriter(), off} {
		res, err := rw.Rewrite(p)
		if err != nil {
			t.Fatal(err)
		}
		reordered := false
		for _, d := range res.Decisions {
			reordered = reordered || d.Rule == "chain-reorder"
		}
		if reordered != (rw != off) {
			t.Errorf("chain reordering disabled = %v, but reordered = %v", rw == off, reordered)
		}
	}
}

// TestFacadeIO exercises the re-exported I/O helpers.
func TestFacadeIO(t *testing.T) {
	g := dmac.SparseUniform(1, 20, 15, 8, 0.1)
	var mm strings.Builder
	if err := dmac.WriteMatrixMarket(&mm, g); err != nil {
		t.Fatal(err)
	}
	back, err := dmac.ReadMatrixMarket(strings.NewReader(mm.String()), 8)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != g.NNZ() {
		t.Error("MatrixMarket round trip lost entries")
	}
	var bin bytes.Buffer
	if err := dmac.WriteGrid(&bin, g); err != nil {
		t.Fatal(err)
	}
	back2, err := dmac.ReadGrid(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if back2.NNZ() != g.NNZ() || back2.BlockSize() != 8 {
		t.Error("binary round trip mismatch")
	}
}

// TestFacadeUFuncAndExtras covers the element-wise function path and the
// extension applications through the facade.
func TestFacadeUFuncAndExtras(t *testing.T) {
	const bs = 8
	s := dmac.NewSession(dmac.PlannerDMac, dmac.ScaledConfig(2, 2), bs)
	v := dmac.DenseRandom(1, 24, 6, bs)
	if err := s.Bind("V", v); err != nil {
		t.Fatal(err)
	}
	p := dmac.NewProgram()
	V := p.Var("V", 24, 6, 1)
	p.Assign("S", p.Func(dmac.FuncSigmoid, V))
	if _, err := s.Run(p, nil); err != nil {
		t.Fatal(err)
	}
	g, _ := s.Grid("S")
	for i := 0; i < 24; i++ {
		for j := 0; j < 6; j++ {
			if got := g.At(i, j); got <= 0 || got >= 1 {
				t.Fatalf("sigmoid output %v outside (0,1)", got)
			}
		}
	}
	// Triangle counting through the facade.
	s2 := dmac.NewSession(dmac.PlannerDMac, dmac.ScaledConfig(2, 2), bs)
	adj := dmac.Symmetrize(dmac.PowerLawGraph(3, 40, 4, bs))
	if _, tri, err := dmac.TriangleCount(s2, adj); err != nil || tri < 0 {
		t.Errorf("TriangleCount: %v, %v", tri, err)
	}
	// Logistic regression through the facade.
	s3 := dmac.NewSession(dmac.PlannerDMac, dmac.ScaledConfig(2, 2), bs)
	fv, fy, _ := dmac.LabeledData(9, 60, 10, bs, 0.3)
	if _, err := dmac.LogReg(s3, fv, fy, 0.3, 0, 3, 1); err != nil {
		t.Errorf("LogReg: %v", err)
	}
}

// TestFacadeApps runs each bundled application once through the facade.
func TestFacadeApps(t *testing.T) {
	cfg := dmac.ClusterConfig{Workers: 2, LocalParallelism: 2}
	const bs = 16

	s := dmac.NewSession(dmac.PlannerDMac, cfg, bs)
	if _, err := dmac.GNMF(s, dmac.Ratings(1, 40, 50, bs, 0.2), 4, 2, 2); err != nil {
		t.Errorf("GNMF: %v", err)
	}
	s = dmac.NewSession(dmac.PlannerDMac, cfg, bs)
	if _, err := dmac.PageRank(s, dmac.PowerLawGraph(2, 80, 4, bs), 3, 3); err != nil {
		t.Errorf("PageRank: %v", err)
	}
	s = dmac.NewSession(dmac.PlannerDMac, cfg, bs)
	if _, err := dmac.LinReg(s, dmac.SparseUniform(3, 60, 20, bs, 0.2), dmac.DenseRandom(4, 60, 1, bs), 1e-6, 2, 5); err != nil {
		t.Errorf("LinReg: %v", err)
	}
	s = dmac.NewSession(dmac.PlannerDMac, cfg, bs)
	if _, err := dmac.CF(s, dmac.Ratings(5, 30, 40, bs, 0.2)); err != nil {
		t.Errorf("CF: %v", err)
	}
	s = dmac.NewSession(dmac.PlannerDMac, cfg, bs)
	if _, sv, err := dmac.SVD(s, dmac.Ratings(6, 30, 12, bs, 0.3), 6, 7); err != nil || len(sv) == 0 {
		t.Errorf("SVD: %v (%d values)", err, len(sv))
	}
}
