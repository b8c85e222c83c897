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
// transpose; the same for a broadcast the session keeps beside a complete
// instance, and for the leaf that reads it back; and every worker once a
// variable keeps the broadcast as its only instance.
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

	// Blend's A %*% B: A is an input, so the session keeps A(b) beside the
	// hash-placed A it holds, and A(b) reaches B(c), as unkept ones do.
	p = expr.NewProgram()
	a, b := p.Var("A", 256, 32, 1), p.Var("B", 32, 256, 1)
	p.Assign("C", p.Mul(a, b))
	plan, err = Generate(p, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	bc := [][2]int{{int(b.Node.ID), int(dep.Col)}}
	if got := reachOf(plan, broadcastOf(t, plan)); !slices.Equal(got, bc) {
		t.Errorf("blend: kept A(b) has reach %v, want B(c) %v\n%s", got, bc, plan)
	}
	// The next run reads the kept A(b) through a leaf with the same reach.
	plan, err = Generate(p, Config{Workers: 4, Vars: map[string][]dep.Scheme{"A": {dep.Broadcast}, "B": {dep.Col}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := reachOf(plan, leafOf(t, plan, "A")); !slices.Equal(got, bc) {
		t.Errorf("blend, second run: the A(b) leaf has reach %v, want B(c) %v\n%s", got, bc, plan)
	}

	// Y = A keeps A(b) as Y's only instance: it must reach every worker, and
	// so must a session's A(b) the program keeps that way.
	p = expr.NewProgram()
	a, b = p.Var("A", 256, 32, 1), p.Var("B", 32, 256, 1)
	p.Assign("Y", a)
	p.Assign("C", p.Mul(a, b))
	plan, err = Generate(p, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if op := broadcastOf(t, plan); op.Reach != nil {
		t.Errorf("a broadcast kept as Y's only instance has reach %v, want every worker\n%s", reachOf(plan, op), plan)
	}
	plan, err = Generate(p, Config{Workers: 4, Vars: map[string][]dep.Scheme{"A": {dep.Broadcast}}})
	if err != nil {
		t.Fatal(err)
	}
	if op := leafOf(t, plan, "A"); op.Reach != nil {
		t.Errorf("an A(b) leaf kept as Y's only instance has reach %v, want every worker\n%s", reachOf(plan, op), plan)
	}

	// SystemML-S only sends a session A(b) on: its leaf needs no worker.
	p = expr.NewProgram()
	a, b = p.Var("A", 256, 32, 1), p.Var("B", 32, 256, 1)
	p.Assign("C", p.Mul(a, b))
	plan, err = GenerateSystemMLS(p, Config{Workers: 4, Vars: map[string][]dep.Scheme{"A": {dep.Broadcast}}})
	if err != nil {
		t.Fatal(err)
	}
	if op := leafOf(t, plan, "A"); op.Reach == nil || len(op.Reach) != 0 {
		t.Errorf("SystemML-S: the A(b) leaf has reach %v, want none\n%s", reachOf(plan, op), plan)
	}
}

// leafOf returns the plan's leaf of variable name that reads a (b) instance.
func leafOf(t *testing.T, plan *Plan, name string) *Op {
	t.Helper()
	for _, op := range plan.Ops {
		if (op.Kind == OpVar || op.Kind == OpLoad) && op.Node.Name == name && plan.Value(op.Output).Scheme == dep.Broadcast {
			return op
		}
	}
	t.Fatalf("no %s(b) leaf in\n%s", name, plan)
	return nil
}
