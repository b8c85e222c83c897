package core

import (
	"strings"
	"testing"

	"dmac/internal/dep"
	"dmac/internal/expr"
	"dmac/internal/matrix"
)

// gnmfHUpdateFused is gnmfHUpdate with the two cell-wise operators as one.
func gnmfHUpdateFused() (*expr.Program, *expr.Node) {
	p := expr.NewProgram()
	V := p.Var("V", gnmfRows, gnmfCols, 0.01)
	W := p.Var("W", gnmfRows, gnmfK, 1)
	H := p.Var("H", gnmfK, gnmfCols, 1)
	WtV := p.Mul(W.T(), V)
	WtWH := p.Mul(p.Mul(W.T(), W), H)
	update := p.Fused(&matrix.CellTree{Inputs: 3, Links: []matrix.CellLink{
		{Kind: matrix.LinkBin, BinOp: matrix.OpCellMul, A: matrix.CellInput(0), B: matrix.CellInput(1)},
		{Kind: matrix.LinkBin, BinOp: matrix.OpCellDiv, A: matrix.CellValue(0), B: matrix.CellInput(2)},
	}}, H, WtV, WtWH)
	p.Assign("H", update)
	return p, update.Node
}

// A fused operator is planned like any cell-wise one, over k inputs: every
// input on one scheme chosen by Eq. 1, in the stage of its last input — here
// at the same cost, on the same scheme, as the two operators it stands for —
// and licensed to overwrite the product of that stage. The baseline planner
// repartitions every input, so it never is.
func TestFusedOperatorPlan(t *testing.T) {
	prog, node := gnmfHUpdateFused()
	plan, err := Generate(prog, gnmfConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Check(); err != nil {
		t.Fatalf("plan check: %v\n%s", err, plan)
	}
	unfused, err := Generate(gnmfHUpdate(), gnmfConfig())
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalCommBytes() != unfused.TotalCommBytes() || len(plan.Ops) != len(unfused.Ops)-1 {
		t.Errorf("fused plan: %d ops moving %d bytes; unfused: %d ops, %d bytes",
			len(plan.Ops), plan.TotalCommBytes(), len(unfused.Ops), unfused.TotalCommBytes())
	}
	find := func(p *Plan) *Op {
		for _, op := range p.Ops {
			if op.Kind == OpCompute && op.Node == node {
				return op
			}
		}
		t.Fatalf("no operator for the fused node\n%s", p)
		return nil
	}
	op := find(plan)
	if op.Strategy != CellCol || len(op.Inputs) != 3 {
		t.Fatalf("fused operator runs %s over %d inputs, want cell(c) over 3\n%s", op.Strategy, len(op.Inputs), plan)
	}
	for i, id := range op.Inputs {
		if s := plan.Value(id).Scheme; s != dep.Col {
			t.Errorf("input %d is %s, want every input column-partitioned", i, plan.Value(id))
		}
		if s := plan.ValueStage(id); s > op.Stage {
			t.Errorf("input %d is ready at stage %d, the operator runs at %d", i, s, op.Stage)
		}
	}
	if op.InPlace != 2 {
		t.Errorf("licensed input %d, want 2 (the product WᵀW·H of the operator's stage)", op.InPlace)
	}
	if !strings.Contains(plan.String(), "(m2 * m3) / m5") || !strings.Contains(plan.String(), "[in-place m5]") {
		t.Errorf("plan rendering lacks the tree or the licence:\n%s", plan)
	}
	if !strings.Contains(plan.DOT(), "in-place m5") {
		t.Errorf("DOT rendering lacks the licence:\n%s", plan.DOT())
	}

	base, err := GenerateSystemMLS(prog, gnmfConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Check(); err != nil {
		t.Fatalf("baseline check: %v\n%s", err, base)
	}
	if op := find(base); op.InPlace != -1 {
		t.Errorf("the baseline plan licenses input %d: every input is a repartitioned copy\n%s", op.InPlace, base)
	}
}
