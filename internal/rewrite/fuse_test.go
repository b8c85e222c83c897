package rewrite_test

import (
	"strings"
	"testing"

	"dmac/internal/cost"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/rewrite"
)

// fusedNodes returns the labels of the program's fused operators.
func fusedNodes(p *expr.Program) []string {
	var labels []string
	for _, n := range p.Nodes() {
		if n.Kind == expr.KindFused {
			labels = append(labels, n.Label())
		}
	}
	return labels
}

// A tree of cell-wise, scalar and function operators whose intermediates have
// one reader each becomes one operator over its leaves; the decision carries
// the bytes of the intermediates no longer materialized, and that is exactly
// what the program's cost falls by.
func TestFuseCellwise(t *testing.T) {
	p := expr.NewProgram()
	a, b, c := p.Var("A", 64, 32, 1), p.Var("B", 64, 32, 1), p.Var("C", 32, 64, 1)
	prod := p.CellMul(a, b)
	damp := p.ScalarParam(matrix.ScalarMul, c.T(), "damping")
	p.Assign("out", p.Func(matrix.FuncSigmoid, p.Sub(prod, damp)))

	res := mustRewrite(t, p)
	if got := fusedNodes(res.Program); len(got) != 1 || got[0] != "sigmoid((m0 * m1) - (m2ᵀ *c(damping)))" {
		t.Fatalf("fused operators %q:\n%s", got, rewrite.FormatProgram(res.Program))
	}
	if n := len(res.Program.Nodes()); n != 4 {
		t.Errorf("%d nodes left, want the three leaves and the fused operator", n)
	}
	var fuse []rewrite.Decision
	for _, d := range res.Decisions {
		if d.Rule == rewrite.RuleFuseCellwise {
			fuse = append(fuse, d)
		}
	}
	interior := cost.SizeBytes(64, 32, 1)
	if len(fuse) != 1 || fuse[0].BytesSaved != 3*interior || fuse[0].Node != "m6" {
		t.Errorf("fusion decisions %+v, want one on m6 saving three %d-byte intermediates", fuse, interior)
	}
	if saved := res.CostBefore - res.CostAfter; saved != float64(3*interior) {
		t.Errorf("cost fell by %v, the intermediates hold %d bytes", saved, 3*interior)
	}
}

// A value with a second reader — another operator, an aggregate, an
// assignment — or one read transposed is materialized, not inlined: the
// trees on either side of it fuse separately or not at all.
func TestFuseCellwiseKeepsSharedAndTransposedValues(t *testing.T) {
	type build func(p *expr.Program, a, b expr.Ref)
	for name, tc := range map[string]struct {
		build build
		want  []string
	}{
		"second operator reads the interior": {func(p *expr.Program, a, b expr.Ref) {
			sum := p.Add(a, b)
			p.Assign("x", p.Scalar(matrix.ScalarMul, sum, 2))
			p.Assign("y", p.Func(matrix.FuncAbs, sum))
		}, nil},
		"aggregate reads the interior": {func(p *expr.Program, a, b expr.Ref) {
			sum := p.Add(a, b)
			p.Sum("s", sum)
			p.Assign("x", p.Scalar(matrix.ScalarMul, sum, 2))
		}, nil},
		"interior is assigned": {func(p *expr.Program, a, b expr.Ref) {
			sum := p.Add(a, b)
			p.Assign("sum", sum)
			p.Assign("x", p.Func(matrix.FuncAbs, p.Scalar(matrix.ScalarMul, sum, 2)))
		}, []string{"abs(m2 *c(2))"}},
		"interior is read transposed": {func(p *expr.Program, a, b expr.Ref) {
			sum := p.Add(a, b)
			p.Assign("x", p.Func(matrix.FuncAbs, p.Scalar(matrix.ScalarMul, sum.T(), 2)))
		}, []string{"abs(m2ᵀ *c(2))"}},
		"interior is read twice by its reader": {func(p *expr.Program, a, b expr.Ref) {
			sum := p.Add(a, b)
			p.Assign("x", p.CellMul(sum, sum))
		}, nil},
	} {
		p := expr.NewProgram()
		tc.build(p, p.Var("A", 16, 16, 1), p.Var("B", 16, 16, 1))
		res := mustRewrite(t, p)
		got := fusedNodes(res.Program)
		if strings.Join(got, "; ") != strings.Join(tc.want, "; ") {
			t.Errorf("%s: fused %q, want %q\n%s", name, got, tc.want, rewrite.FormatProgram(res.Program))
		}
	}
}

// A fused operator met again — in a program rewritten before, or written by
// hand — is a piece of a tree like any other: its reader absorbs it.
func TestFuseCellwiseAbsorbsFusedNodes(t *testing.T) {
	p := expr.NewProgram()
	a, b, c := p.Var("A", 16, 16, 1), p.Var("B", 16, 16, 1), p.Var("C", 16, 16, 1)
	inner := p.Fused(&matrix.CellTree{Inputs: 2, Links: []matrix.CellLink{
		{Kind: matrix.LinkBin, BinOp: matrix.OpCellMul, A: matrix.CellInput(1), B: matrix.CellInput(0)},
		{Kind: matrix.LinkFunc, UFunc: matrix.FuncSqrt, A: matrix.CellValue(0)},
	}}, a, b)
	p.Assign("out", p.CellDiv(c, inner))

	res := mustRewrite(t, p)
	if got := fusedNodes(res.Program); len(got) != 1 || got[0] != "m2 / sqrt(m1 * m0)" {
		t.Fatalf("fused operators %q:\n%s", got, rewrite.FormatProgram(res.Program))
	}
	again := mustRewrite(t, res.Program)
	if again.Changed || len(again.Decisions) != 0 {
		t.Errorf("a second pass changed the fused program: %+v\n%s", again.Decisions, rewrite.FormatProgram(again.Program))
	}
}

// Folding runs before fusion: an identity inside a tree disappears instead of
// becoming a link, and the fused operator keeps the refined sparsity estimate
// of the tree's root.
func TestFuseCellwiseAfterFoldingAndRefinement(t *testing.T) {
	p := expr.NewProgram()
	a, b := p.Var("A", 8, 8, 0.1), p.Var("B", 8, 8, 0.2)
	p.Assign("out", p.Scalar(matrix.ScalarMul, p.Scalar(matrix.ScalarMul, p.CellMul(a, b), 1), 3))

	res := mustRewrite(t, p)
	if !hasRule(t, res, rewrite.RuleFoldIdentity) {
		t.Errorf("the identity was not folded: %+v", res.Decisions)
	}
	var fused *expr.Node
	for _, n := range res.Program.Nodes() {
		if n.Kind == expr.KindFused {
			fused = n
		}
	}
	if fused == nil || fused.Label() != "(m0 * m1) *c(3)" || fused.Sparsity != 0.1 {
		t.Fatalf("want (m0 * m1) *c(3) at the product's refined sparsity 0.1:\n%s", rewrite.FormatProgram(res.Program))
	}
}
