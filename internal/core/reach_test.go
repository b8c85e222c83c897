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

// sameReach reports whether reach is want: both nil (every worker), or the
// same workers.
func sameReach(reach, want []int) bool {
	return (reach == nil) == (want == nil) && slices.Equal(reach, want)
}

// TestBroadcastReach derives a broadcast's reach from its readers, as the
// workers holding their blocks at the plan's block size: an RMM1's (c)
// partner; an RMM2's (r) partner; an extract's output, through a lazy
// transpose; the same for a broadcast the session keeps beside a complete
// instance, and for the leaf that reads it back; and every worker once the
// readers run on all of them, the plan has no block size, or a variable
// keeps the broadcast as its only instance.
func TestBroadcastReach(t *testing.T) {
	vars := map[string][]dep.Scheme{"L": {dep.Col}, "r": {dep.Col}, "R": {dep.Row}}

	// PageRank's rank · link: rank is assigned, so rank(b) is not kept. L(c)
	// has two block-columns at 2048, four at 1024.
	p := expr.NewProgram()
	rank, link := p.Var("r", 1, 4096, 1), p.Var("L", 4096, 4096, 0.001)
	p.Assign("r", p.Mul(rank, link))
	for _, tc := range []struct {
		bs   int
		want []int
	}{{2048, []int{0, 1}}, {1024, nil}, {0, nil}} {
		plan, err := Generate(p, Config{Workers: 4, BlockSize: tc.bs, Vars: vars})
		if err != nil {
			t.Fatal(err)
		}
		if got := broadcastOf(t, plan).Reach; !sameReach(got, tc.want) {
			t.Errorf("rank · link at block size %d: reach %v, want L(c)'s holders %v\n%s", tc.bs, got, tc.want, plan)
		}
	}

	// R(r) · x with x assigned over: x(b) reaches R's two block-rows.
	p = expr.NewProgram()
	big, x := p.Var("R", 4096, 4096, 0.001), p.Var("x", 4096, 1, 1)
	p.Assign("x", p.Mul(big, x))
	plan, err := Generate(p, Config{Workers: 4, BlockSize: 2048, Vars: vars})
	if err != nil {
		t.Fatal(err)
	}
	if got := broadcastOf(t, plan).Reach; !sameReach(got, []int{0, 1}) {
		t.Errorf("R · x: reach %v, want R(r)'s holders [0 1]\n%s", got, plan)
	}

	// Gram: Vᵀ(b) feeds its RMM1 and, through an extract and a transpose,
	// V(c), the RMM1's partner: both have two blocks along their scheme.
	p = expr.NewProgram()
	v := p.Var("V", 512, 128, 0.05)
	p.Assign("G", p.Mul(v.T(), v))
	plan, err = Generate(p, Config{Workers: 4, BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(plan.Ops, func(x *Op) bool { return x.Kind == OpExtract }) {
		t.Fatalf("gram: no extract in\n%s", plan)
	}
	if got := broadcastOf(t, plan).Reach; !sameReach(got, []int{0, 1}) {
		t.Errorf("gram: reach %v, want the holders of the extract's output and the RMM1's partner [0 1]\n%s", got, plan)
	}

	// Blend's A %*% B: A is an input, so the session keeps A(b) beside the
	// hash-placed A it holds, and A(b) reaches B(c)'s three block-columns, as
	// unkept ones do.
	p = expr.NewProgram()
	a, b := p.Var("A", 256, 32, 1), p.Var("B", 32, 256, 1)
	p.Assign("C", p.Mul(a, b))
	plan, err = Generate(p, Config{Workers: 4, BlockSize: 96})
	if err != nil {
		t.Fatal(err)
	}
	bc := []int{0, 1, 2}
	if got := broadcastOf(t, plan).Reach; !sameReach(got, bc) {
		t.Errorf("blend: kept A(b) has reach %v, want B(c)'s holders %v\n%s", got, bc, plan)
	}
	// The next run reads the kept A(b) through a leaf with the same reach.
	plan, err = Generate(p, Config{Workers: 4, BlockSize: 96, Vars: map[string][]dep.Scheme{"A": {dep.Broadcast}, "B": {dep.Col}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := leafOf(t, plan, "A").Reach; !sameReach(got, bc) {
		t.Errorf("blend, second run: the A(b) leaf has reach %v, want %v\n%s", got, bc, plan)
	}

	// Y = A keeps A(b) as Y's only instance: it must reach every worker, and
	// so must a session's A(b) the program keeps that way.
	p = expr.NewProgram()
	a, b = p.Var("A", 256, 32, 1), p.Var("B", 32, 256, 1)
	p.Assign("Y", a)
	p.Assign("C", p.Mul(a, b))
	plan, err = Generate(p, Config{Workers: 4, BlockSize: 96})
	if err != nil {
		t.Fatal(err)
	}
	if op := broadcastOf(t, plan); op.Reach != nil {
		t.Errorf("a broadcast kept as Y's only instance has reach %v, want every worker\n%s", op.Reach, plan)
	}
	plan, err = Generate(p, Config{Workers: 4, BlockSize: 96, Vars: map[string][]dep.Scheme{"A": {dep.Broadcast}}})
	if err != nil {
		t.Fatal(err)
	}
	if op := leafOf(t, plan, "A"); op.Reach != nil {
		t.Errorf("an A(b) leaf kept as Y's only instance has reach %v, want every worker\n%s", op.Reach, plan)
	}

	// SystemML-S only sends a session A(b) on: its leaf needs no worker.
	p = expr.NewProgram()
	a, b = p.Var("A", 256, 32, 1), p.Var("B", 32, 256, 1)
	p.Assign("C", p.Mul(a, b))
	plan, err = GenerateSystemMLS(p, Config{Workers: 4, BlockSize: 96, Vars: map[string][]dep.Scheme{"A": {dep.Broadcast}}})
	if err != nil {
		t.Fatal(err)
	}
	if op := leafOf(t, plan, "A"); op.Reach == nil || len(op.Reach) != 0 {
		t.Errorf("SystemML-S: the A(b) leaf has reach %v, want none\n%s", op.Reach, plan)
	}
}

// TestTooNarrowReplicaIsPassedOver: a session A(b) copied to the holders of
// B(c)'s three block-columns serves C = A %*% B as it is. One copied to two
// of them is passed over: the plan is the one made without it, broadcasting
// from the hash-placed A, and names A in TooNarrow. A replica a program keeps
// as Y's only instance must be everywhere, so any narrowed one is passed
// over; SystemML-S only sends the replica on, so none is.
func TestTooNarrowReplicaIsPassedOver(t *testing.T) {
	p := expr.NewProgram()
	a, b := p.Var("A", 256, 32, 1), p.Var("B", 32, 256, 1)
	p.Assign("C", p.Mul(a, b))
	vars := map[string][]dep.Scheme{"A": {dep.Broadcast}, "B": {dep.Col}}
	plan, err := Generate(p, Config{Workers: 4, BlockSize: 96, Vars: vars, Replicas: map[string][]int{"A": {0, 1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := leafOf(t, plan, "A").Reach; plan.TooNarrow != nil || !sameReach(got, []int{0, 1, 2}) {
		t.Errorf("a replica on [0 1 2]: TooNarrow %v, leaf reach %v; want none and [0 1 2]\n%s", plan.TooNarrow, got, plan)
	}

	plan, err = Generate(p, Config{Workers: 4, BlockSize: 96, Vars: vars, Replicas: map[string][]int{"A": {0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Generate(p, Config{Workers: 4, BlockSize: 96, Vars: map[string][]dep.Scheme{"B": {dep.Col}}})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(plan.TooNarrow, []string{"A"}) || plan.String() != without.String() {
		t.Errorf("a replica on [0 1]: TooNarrow %v and plan\n%s\nwant [A] and the plan without the replica\n%s", plan.TooNarrow, plan, without)
	}
	if got := broadcastOf(t, plan).Reach; !sameReach(got, []int{0, 1, 2}) {
		t.Errorf("a replica on [0 1]: the broadcast replacing it reaches %v, want [0 1 2]", got)
	}
	if err := plan.Check(); err != nil {
		t.Error(err)
	}

	p = expr.NewProgram()
	a, b = p.Var("A", 256, 32, 1), p.Var("B", 32, 256, 1)
	p.Assign("Y", a)
	p.Assign("C", p.Mul(a, b))
	plan, err = Generate(p, Config{Workers: 4, BlockSize: 96, Vars: vars, Replicas: map[string][]int{"A": {0, 1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(plan.TooNarrow, []string{"A"}) {
		t.Errorf("Y = A: TooNarrow %v, want [A]\n%s", plan.TooNarrow, plan)
	}

	p = expr.NewProgram()
	a, b = p.Var("A", 256, 32, 1), p.Var("B", 32, 256, 1)
	p.Assign("C", p.Mul(a, b))
	plan, err = GenerateSystemMLS(p, Config{Workers: 4, BlockSize: 96, Vars: vars, Replicas: map[string][]int{"A": {0}}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.TooNarrow != nil || len(leafOf(t, plan, "A").Reach) != 0 {
		t.Errorf("SystemML-S: TooNarrow %v, want none\n%s", plan.TooNarrow, plan)
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

// TestCheckRejectsBadReach damages the reach of a checked plan each way Check
// forbids: a broadcast's workers out of order, repeated or outside the
// cluster, and a reach on an operator that carries none (a compute, a leaf
// reading a partitioned instance).
func TestCheckRejectsBadReach(t *testing.T) {
	p := expr.NewProgram()
	a, b := p.Var("A", 256, 32, 1), p.Var("B", 32, 256, 1)
	p.Assign("C", p.Mul(a, b))
	cfg := Config{Workers: 4, BlockSize: 96, Vars: map[string][]dep.Scheme{"B": {dep.Col}}}
	plan, err := Generate(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Check(); err != nil {
		t.Fatalf("the undamaged plan: %v", err)
	}
	bcast := broadcastOf(t, plan)
	var compute, leaf *Op
	for _, op := range plan.Ops {
		switch {
		case op.Kind == OpCompute:
			compute = op
		case op.Kind == OpVar && plan.Value(op.Output).Scheme == dep.Col:
			leaf = op
		}
	}
	if compute == nil || leaf == nil {
		t.Fatalf("no compute or B(c) leaf in\n%s", plan)
	}
	for _, tc := range []struct {
		name  string
		op    *Op
		reach []int
	}{
		{"descending", bcast, []int{1, 0}},
		{"repeated", bcast, []int{0, 0, 1}},
		{"past the workers", bcast, []int{0, 4}},
		{"negative", bcast, []int{-1, 0}},
		{"on a compute", compute, []int{0}},
		{"on a compute, empty", compute, []int{}},
		{"on a (c) leaf", leaf, []int{0, 1}},
	} {
		old := tc.op.Reach
		tc.op.Reach = tc.reach
		if err := plan.Check(); err == nil {
			t.Errorf("%s: Check accepted reach %v on\n%s", tc.name, tc.reach, plan)
		}
		tc.op.Reach = old
	}
	if err := plan.Check(); err != nil {
		t.Errorf("the restored plan: %v", err)
	}
}
