package expr

import (
	"strings"
	"testing"

	"dmac/internal/matrix"
)

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", what)
		}
	}()
	f()
}

// Fused follows the worst-case sparsity rules of the single operators link by
// link, prints its tree in infix over its inputs and validates like the rest.
func TestFusedBuilder(t *testing.T) {
	p := NewProgram()
	a, b, c := p.Var("A", 6, 4, 0.1), p.Var("B", 6, 4, 0.2), p.Var("C", 4, 6, 0.3)
	tree := &matrix.CellTree{Inputs: 3, Links: []matrix.CellLink{
		{Kind: matrix.LinkBin, BinOp: matrix.OpAdd, A: matrix.CellInput(0), B: matrix.CellInput(1)},
		{Kind: matrix.LinkScalar, ScalarOp: matrix.ScalarMul, Param: "alpha", A: matrix.CellInput(2)},
		{Kind: matrix.LinkBin, BinOp: matrix.OpAdd, A: matrix.CellValue(0), B: matrix.CellValue(1)},
		{Kind: matrix.LinkFunc, UFunc: matrix.FuncAbs, A: matrix.CellValue(2)},
	}}
	f := p.Fused(tree, a, b, c.T())
	n := f.Node
	if n.Kind != KindFused || n.Rows != 6 || n.Cols != 4 || !n.Kind.IsCellwise() {
		t.Fatalf("fused node %+v", n)
	}
	if got := n.Sparsity; got < 0.6-1e-12 || got > 0.6+1e-12 {
		t.Errorf("sparsity %v, want 0.1+0.2+0.3 through zero-preserving links", got)
	}
	if got, want := n.Label(), "abs((m0 + m1) + (m2ᵀ *c(alpha)))"; got != want {
		t.Errorf("Label = %q, want %q", got, want)
	}
	if n.Cells() != tree {
		t.Error("Cells of a fused node is not its tree")
	}
	p.Assign("out", f)
	if err := p.Validate(); err != nil {
		t.Fatalf("valid fused program rejected: %v", err)
	}

	densify := &matrix.CellTree{Inputs: 1, Links: []matrix.CellLink{
		{Kind: matrix.LinkScalar, ScalarOp: matrix.ScalarAdd, Const: 1, A: matrix.CellInput(0)}}}
	if got := p.Fused(densify, a).Node.Sparsity; got != 1 {
		t.Errorf("sparsity %v after +1, want 1", got)
	}

	mustPanic(t, "shape mismatch", func() { p.Fused(tree, a, b, c) })
	mustPanic(t, "input count", func() { p.Fused(tree, a, b) })
	mustPanic(t, "invalid tree", func() { p.Fused(&matrix.CellTree{Inputs: 1}, a) })

	for what, corrupt := range map[string]func(){
		"no tree":      func() { n.Tree = nil },
		"input count":  func() { n.Inputs = n.Inputs[:2] },
		"shape":        func() { n.Inputs = []Ref{a, b, c} },
		"invalid tree": func() { n.Tree = &matrix.CellTree{Inputs: 3} },
	} {
		tree, inputs := n.Tree, n.Inputs
		corrupt()
		if err := p.Validate(); err == nil {
			t.Errorf("Validate accepts a fused node corrupted in its %s", what)
		}
		n.Tree, n.Inputs = tree, inputs
	}
}

// Cells gives every cell-wise kind as a tree — one link for the single
// operators, payload included — and nil for the rest; AppendCopy re-emits a
// node over new inputs with its estimate intact.
func TestCellsAndAppendCopy(t *testing.T) {
	p := NewProgram()
	a, b := p.Var("A", 4, 4, 0.5), p.Var("B", 4, 4, 0.5)
	cell := p.CellDiv(a, b)
	scalar := p.ScalarParam(matrix.ScalarRSub, a, "beta")
	fn := p.Func(matrix.FuncSigmoid, a)
	for _, tc := range []struct {
		ref  Ref
		want string
	}{
		{cell, "x0 / x1"}, {scalar, "x0 c-(beta)"}, {fn, "sigmoid(x0)"},
	} {
		tree := tc.ref.Node.Cells()
		if err := tree.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.want, err)
		}
		if tree.Inputs != len(tc.ref.Node.Inputs) || len(tree.Links) != 1 {
			t.Errorf("%s: tree over %d inputs with %d links", tc.want, tree.Inputs, len(tree.Links))
		}
		if got := tree.Format(func(i int) string { return "x" + string(rune('0'+i)) }); got != tc.want {
			t.Errorf("Cells() renders %q, want %q", got, tc.want)
		}
	}
	if a.Node.Cells() != nil || p.Mul(a, b).Node.Cells() != nil {
		t.Error("a leaf or a product has a cell-wise tree")
	}

	cell.Node.Sparsity = 0.25 // a refined estimate
	q := NewProgram()
	x, y := q.Var("X", 4, 4, 1), q.Var("Y", 4, 4, 1)
	c := q.AppendCopy(cell.Node, y, x.T())
	if c.Node == cell.Node || c.Node.ID != 2 || c.Node.BinOp != matrix.OpCellDiv || c.Node.Sparsity != 0.25 {
		t.Errorf("copy %+v", c.Node)
	}
	if got := c.Node.Label(); !strings.HasPrefix(got, "m1 / m0ᵀ") {
		t.Errorf("copy reads %q", got)
	}
	if len(cell.Node.Inputs) != 2 || cell.Node.Inputs[0].Node != a.Node {
		t.Error("AppendCopy changed the node it copied")
	}
	q.Assign("out", c)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
}
