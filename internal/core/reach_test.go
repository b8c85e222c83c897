package core

import (
	"slices"
	"testing"

	"dmac/internal/dep"
	"dmac/internal/expr"
)

// broadcastOf returns the plan's one broadcast operator.
func broadcastOf(t *testing.T, plan *Plan) *Op {
	t.Helper()
	var out *Op
	for _, op := range plan.Ops {
		if op.Kind == OpBroadcast {
			if out != nil {
				t.Fatalf("two broadcasts in\n%s", plan)
			}
			out = op
		}
	}
	if out == nil {
		t.Fatalf("no broadcast in\n%s", plan)
	}
	return out
}

// reachOf describes a broadcast's reach as (matrix, scheme) pairs, nil for
// every worker.
func reachOf(plan *Plan, op *Op) [][2]int {
	if op.Reach == nil {
		return nil
	}
	var out [][2]int
	for _, id := range op.Reach {
		v := plan.Value(id)
		out = append(out, [2]int{int(v.Matrix), int(v.Scheme)})
	}
	return out
}

// TestBroadcastReach derives a broadcast's reach from its readers: an RMM1's
// (c) partner; an RMM2's (r) partner; an extract's output, through a lazy
// transpose; and every worker once the session keeps the broadcast.
func TestBroadcastReach(t *testing.T) {
	cfg := Config{Workers: 4, Vars: map[string][]dep.Scheme{"L": {dep.Col}, "r": {dep.Col}, "R": {dep.Row}}}

	// PageRank's rank · link: rank is assigned, so rank(b) is not kept.
	p := expr.NewProgram()
	rank, link := p.Var("r", 1, 4096, 1), p.Var("L", 4096, 4096, 0.001)
	p.Assign("r", p.Mul(rank, link))
	plan, err := Generate(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reachOf(plan, broadcastOf(t, plan)), [][2]int{{int(link.Node.ID), int(dep.Col)}}; !slices.Equal(got, want) {
		t.Errorf("rank · link: reach %v, want L(c) %v\n%s", got, want, plan)
	}

	// R(r) · x with x assigned over: x(b) reaches R's block-rows.
	p = expr.NewProgram()
	big, x := p.Var("R", 4096, 4096, 0.001), p.Var("x", 4096, 1, 1)
	p.Assign("x", p.Mul(big, x))
	plan, err = Generate(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reachOf(plan, broadcastOf(t, plan)), [][2]int{{int(big.Node.ID), int(dep.Row)}}; !slices.Equal(got, want) {
		t.Errorf("R · x: reach %v, want R(r) %v\n%s", got, want, plan)
	}

	// Gram: Vᵀ(b) feeds its RMM1 and, through an extract and a transpose,
	// V(c), the RMM1's partner.
	p = expr.NewProgram()
	v := p.Var("V", 512, 128, 0.05)
	p.Assign("G", p.Mul(v.T(), v))
	plan, err = Generate(p, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	op := broadcastOf(t, plan)
	if len(op.Reach) != 2 || !slices.ContainsFunc(plan.Ops, func(x *Op) bool { return x.Kind == OpExtract && x.Output == op.Reach[0] }) {
		t.Errorf("gram: reach %v, want the extract's output and the RMM1's partner\n%s", reachOf(plan, op), plan)
	}

	// Blend's A %*% B: A is an input, so the session keeps A(b).
	p = expr.NewProgram()
	a, b := p.Var("A", 256, 32, 1), p.Var("B", 32, 256, 1)
	p.Assign("C", p.Mul(a, b))
	plan, err = Generate(p, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if op := broadcastOf(t, plan); op.Reach != nil {
		t.Errorf("a kept broadcast has reach %v, want every worker\n%s", reachOf(plan, op), plan)
	}
}
