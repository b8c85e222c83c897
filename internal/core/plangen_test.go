package core

import (
	"strings"
	"sync"
	"testing"

	"dmac/internal/cost"
	"dmac/internal/dep"
	"dmac/internal/expr"
)

// Netflix-shaped GNMF dimensions (V = movies x users, Section 6.2).
const (
	gnmfRows = 17770  // movies
	gnmfCols = 480189 // users
	gnmfK    = 200    // factor size
)

// gnmfHUpdate builds the H-update of Code 1 with session variables V(c),
// W(r), H(c): H = H * (Wᵀ V) / (Wᵀ W %*% H).
func gnmfHUpdate() *expr.Program {
	p := expr.NewProgram()
	V := p.Var("V", gnmfRows, gnmfCols, 0.01)
	W := p.Var("W", gnmfRows, gnmfK, 1)
	H := p.Var("H", gnmfK, gnmfCols, 1)
	WtV := p.Mul(W.T(), V)
	WtW := p.Mul(W.T(), W)
	WtWH := p.Mul(WtW, H)
	num := p.CellMul(H, WtV)
	p.Assign("H", p.CellDiv(num, WtWH))
	return p
}

func gnmfConfig() Config {
	return Config{
		Workers: 4,
		Vars: map[string][]dep.Scheme{
			"V": {dep.Col},
			"W": {dep.Row},
			"H": {dep.Col},
		},
	}
}

func TestGenerateGNMFPlanIsValidAndCheap(t *testing.T) {
	prog := gnmfHUpdate()
	plan, err := Generate(prog, gnmfConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Check(); err != nil {
		t.Fatalf("plan check: %v\n%s", err, plan)
	}
	base, err := GenerateSystemMLS(prog, gnmfConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Check(); err != nil {
		t.Fatalf("baseline check: %v\n%s", err, base)
	}
	dm, sm := plan.TotalCommBytes(), base.TotalCommBytes()
	if dm >= sm {
		t.Errorf("DMac comm %d >= SystemML-S comm %d", dm, sm)
	}
	// The dependency-aware plan should save at least 5x on this workload
	// (the paper reports ~27x over a full GNMF iteration).
	if sm < 5*dm {
		t.Errorf("expected >5x communication gap, got DMac=%d SystemML-S=%d", dm, sm)
	}
	// The only heavy communication DMac needs is broadcasting Wᵀ (N x |W|)
	// and WᵀW; everything else rides on dependencies.
	wBytes := cost.SizeBytes(gnmfRows, gnmfK, 1)
	wtwBytes := cost.SizeBytes(gnmfK, gnmfK, 1)
	maxExpected := int64(4)*(wBytes+wtwBytes) + 1024
	if dm > maxExpected {
		t.Errorf("DMac comm %d exceeds expected bound %d\n%s", dm, maxExpected, plan)
	}
}

func TestGNMFCellOpsRideOnColumnScheme(t *testing.T) {
	// The paper (Section 6.2): H * (WᵀV) / (WᵀWH) runs without any
	// communication in DMac because all three operands end up in Column
	// scheme. Verify the cell ops have zero-cost Reference inputs.
	plan, err := Generate(gnmfHUpdate(), gnmfConfig())
	if err != nil {
		t.Fatal(err)
	}
	cellOps := 0
	for _, op := range plan.Ops {
		if op.Kind == OpCompute && op.Node.Kind == expr.KindCell {
			cellOps++
			if op.CommBytes != 0 {
				t.Errorf("cell op %s communicates %d bytes", op.Node.Label(), op.CommBytes)
			}
			if op.Strategy != CellCol {
				t.Errorf("cell op %s uses %s, want cell(c)", op.Node.Label(), op.Strategy)
			}
			for j, d := range op.InDeps {
				if d != dep.Reference {
					t.Errorf("cell op %s input %d has dependency %s, want reference", op.Node.Label(), j, d)
				}
			}
		}
	}
	if cellOps != 2 {
		t.Errorf("expected 2 cell ops, found %d", cellOps)
	}
}

func TestGNMFFirstMulUsesRMM1(t *testing.T) {
	// Wᵀ %*% V: |WᵀV| is larger than |Wᵀ| on the Netflix shape, so the
	// minimum-communication strategy broadcasts Wᵀ and multiplies against
	// V(c) (Section 4.2.4).
	plan, err := Generate(gnmfHUpdate(), gnmfConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range plan.Ops {
		if op.Kind == OpCompute && op.Node.Kind == expr.KindMul {
			if op.Strategy != RMM1 {
				t.Errorf("first mul uses %s, want RMM1\n%s", op.Strategy, plan)
			}
			break
		}
	}
}

func TestStagesAreUninterleaved(t *testing.T) {
	plan, err := Generate(gnmfHUpdate(), gnmfConfig())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stages < 2 {
		t.Errorf("GNMF H-update should need >= 2 stages, got %d", plan.Stages)
	}
	// Stage indices never decrease along any value chain, and local ops
	// never cross a boundary (enforced by Check, re-asserted here).
	if err := plan.Check(); err != nil {
		t.Fatal(err)
	}
	// Stage numbering is contiguous from 1.
	seen := make(map[int]bool)
	for _, op := range plan.Ops {
		seen[op.Stage] = true
	}
	for s := 1; s <= plan.Stages; s++ {
		if !seen[s] {
			t.Errorf("stage %d missing from plan", s)
		}
	}
}

func TestSystemMLSAlwaysRepartitions(t *testing.T) {
	plan, err := GenerateSystemMLS(gnmfHUpdate(), gnmfConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Every compute input edge must be satisfied through a communication
	// dependency: the baseline ignores cached schemes.
	for _, op := range plan.Ops {
		if op.Kind != OpCompute {
			continue
		}
		for j, d := range op.InDeps {
			if !d.NeedsCommunication() {
				t.Errorf("baseline op %s input %d has non-comm dependency %s", op.Node.Label(), j, d)
			}
		}
	}
}

func TestCPMMFlexibleOutputReassignment(t *testing.T) {
	// Build a program where CPMM wins for A %*% B (both operands cached in
	// CPMM-friendly schemes, output small relative to broadcasts) and the
	// consumer wants the result row-partitioned: the Re-assignment
	// heuristic must pin the CPMM output to Row so the consumer reads it
	// for free.
	p := expr.NewProgram()
	a := p.Var("A", 100000, 100000, 0.001) // large sparse
	b := p.Var("B", 100000, 200, 1)
	ab := p.Mul(a, b) // 100000 x 200: CPMM aggregation is cheap
	c := p.Var("C", 100000, 200, 1)
	p.Assign("S", p.Add(ab, c)) // consumer: cell op with C(r) cached
	cfg := Config{
		Workers: 4,
		Vars: map[string][]dep.Scheme{
			"A": {dep.Col},
			"B": {dep.Row},
			"C": {dep.Row},
		},
	}
	plan, err := Generate(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Check(); err != nil {
		t.Fatalf("%v\n%s", err, plan)
	}
	var mulOp, cellOp *Op
	for _, op := range plan.Ops {
		if op.Kind != OpCompute {
			continue
		}
		switch op.Node.Kind {
		case expr.KindMul:
			mulOp = op
		case expr.KindCell:
			cellOp = op
		}
	}
	if mulOp == nil || cellOp == nil {
		t.Fatal("missing ops in plan")
	}
	if mulOp.Strategy != CPMM {
		t.Fatalf("mul uses %s, want CPMM\n%s", mulOp.Strategy, plan)
	}
	if got := plan.Value(mulOp.Output).Scheme; got != dep.Row {
		t.Errorf("CPMM output pinned to %s, want r (Re-assignment)\n%s", got, plan)
	}
	if cellOp.Strategy != CellRow {
		t.Errorf("consumer uses %s, want cell(r)", cellOp.Strategy)
	}
	for j, d := range cellOp.InDeps {
		if d != dep.Reference {
			t.Errorf("consumer input %d dependency %s, want reference", j, d)
		}
	}
}

func TestPullUpBroadcastHeuristic(t *testing.T) {
	// op_i reads A row-partitioned (pays a partition from hash), a later
	// op_j broadcasts A. Pull-Up Broadcast must rewrite the partition into
	// broadcast + extract, paying N|A| once instead of |A| + N|A|.
	p := expr.NewProgram()
	a := p.Load("A", 5000, 5000, 1) // hash-partitioned source
	b := p.Var("B", 5000, 5000, 1)
	// Force a row read of A: cell op with row-cached B.
	s1 := p.Add(a, b)
	// Force a broadcast read of A: multiplication with a huge dense right
	// operand cached in Col scheme, so RMM1 (A broadcast) wins over
	// broadcasting G (RMM2) or shuffling the huge product (CPMM).
	big := p.Var("G", 5000, 2000000, 1)
	s2 := p.Mul(a, big)
	p.Assign("S1", s1)
	p.Assign("S2", s2)
	cfg := Config{
		Workers: 4,
		Vars: map[string][]dep.Scheme{
			"B": {dep.Row},
			"G": {dep.Col},
		},
	}
	plan, err := Generate(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Check(); err != nil {
		t.Fatalf("%v\n%s", err, plan)
	}
	// Count communication on matrix A's values: there must be exactly one
	// broadcast of A and no partition of A.
	aID := a.Node.ID
	var partitions, broadcasts, extracts int
	for _, op := range plan.Ops {
		if op.Output < 0 || plan.Value(op.Output).Matrix != aID {
			continue
		}
		switch op.Kind {
		case OpPartition:
			partitions++
		case OpBroadcast:
			broadcasts++
		case OpExtract:
			extracts++
		}
	}
	if partitions != 0 || broadcasts != 1 || extracts < 1 {
		t.Errorf("pull-up broadcast not applied: partitions=%d broadcasts=%d extracts=%d\n%s",
			partitions, broadcasts, extracts, plan)
	}
	aBytes := cost.SizeBytes(5000, 5000, 1)
	// Total comm on A should be N|A| (one broadcast), not N|A| + |A|.
	var aComm int64
	for _, op := range plan.Ops {
		if op.Output >= 0 && plan.Value(op.Output).Matrix == aID {
			aComm += op.CommBytes
		}
	}
	if aComm != 4*aBytes {
		t.Errorf("comm on A = %d, want %d", aComm, 4*aBytes)
	}
}

func TestGenerateRejectsBadInputs(t *testing.T) {
	p := expr.NewProgram()
	a := p.Load("A", 2, 2, 1)
	p.Assign("A2", a)
	if _, err := Generate(p, Config{Workers: 0}); err == nil {
		t.Error("expected error for 0 workers")
	}
	// Corrupt program fails validation.
	bad := expr.NewProgram()
	x := bad.Load("X", 2, 2, 1)
	x.Node.ID = 7
	if _, err := Generate(bad, Config{Workers: 2}); err == nil {
		t.Error("expected validation error")
	}
}

func TestVarWithMultipleCachedSchemes(t *testing.T) {
	p := expr.NewProgram()
	v := p.Var("V", 1000, 1000, 0.1)
	w := p.Var("W", 1000, 10, 1)
	p.Assign("R", p.Mul(v.T(), w))
	cfg := Config{
		Workers: 4,
		Vars:    map[string][]dep.Scheme{"V": {dep.Row, dep.Col}, "W": {dep.Row}},
	}
	plan, err := Generate(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Check(); err != nil {
		t.Fatalf("%v\n%s", err, plan)
	}
	// Both cached instances must appear as OpVar leaves.
	vars := 0
	for _, op := range plan.Ops {
		if op.Kind == OpVar && op.Node.Name == "V" {
			vars++
		}
	}
	if vars != 2 {
		t.Errorf("V leaves = %d, want 2", vars)
	}
}

func TestAggregatePlan(t *testing.T) {
	p := expr.NewProgram()
	r := p.Var("r", 100000, 1, 1)
	rr := p.CellMul(r, r)
	p.Sum("norm_r2", rr)
	cfg := Config{Workers: 4, Vars: map[string][]dep.Scheme{"r": {dep.Row}}}
	plan, err := Generate(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Check(); err != nil {
		t.Fatalf("%v\n%s", err, plan)
	}
	found := false
	for _, op := range plan.Ops {
		if op.ScalarName == "norm_r2" {
			found = true
			if op.Output != -1 {
				t.Error("aggregate must not produce a matrix value")
			}
			if op.CommBytes != 32 {
				t.Errorf("aggregate comm = %d, want 32 (8 bytes x 4 workers)", op.CommBytes)
			}
		}
	}
	if !found {
		t.Error("scalar output not planned")
	}
}

func TestPlanStringAndDOT(t *testing.T) {
	plan, err := Generate(gnmfHUpdate(), gnmfConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := plan.String()
	for _, want := range []string{"plan:", "RMM1", "var(V)", "stages"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan string missing %q:\n%s", want, s)
		}
	}
	d := plan.DOT()
	for _, want := range []string{"digraph plan", "->", "style=dashed"} {
		if !strings.Contains(d, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestStrategyAndOpKindStrings(t *testing.T) {
	for _, s := range []Strategy{RMM1, RMM2, CPMM, CellRow, CellCol, CellBcast, AggRow, AggCol, AggBcast, StrategyNone} {
		if s.String() == "" {
			t.Errorf("strategy %d has empty name", s)
		}
	}
	for _, k := range []OpKind{OpLoad, OpVar, OpCompute, OpPartition, OpBroadcast, OpTranspose, OpExtract, OpReference} {
		if k.String() == "" || strings.HasPrefix(k.String(), "OpKind(") {
			t.Errorf("op kind %d missing name", k)
		}
	}
	if !OpPartition.IsComm() || !OpBroadcast.IsComm() || OpTranspose.IsComm() || OpExtract.IsComm() {
		t.Error("IsComm wrong")
	}
}

func TestBaselineTransposedReadPaysExtra(t *testing.T) {
	p := expr.NewProgram()
	v := p.Var("V", 10000, 10000, 1)
	w := p.Var("W", 10000, 10, 1)
	p.Assign("R", p.Mul(v.T(), w))
	cfg := Config{Workers: 4, Vars: map[string][]dep.Scheme{"V": {dep.Row}, "W": {dep.Row}}}
	base, err := GenerateSystemMLS(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dmac, err := Generate(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.TotalCommBytes() <= dmac.TotalCommBytes() {
		t.Errorf("baseline %d should exceed DMac %d (transpose + repartition)",
			base.TotalCommBytes(), dmac.TotalCommBytes())
	}
}

// TestOpLabelsSharedAcrossGoroutines: engines running one cached plan name
// its operators concurrently (run it under -race); every caller reads the
// operator's kind and its node's label, and later calls the kept string.
func TestOpLabelsSharedAcrossGoroutines(t *testing.T) {
	plan, err := Generate(gnmfFullIteration(), gnmfConfig())
	if err != nil {
		t.Fatal(err)
	}
	labels := make([][]string, 4)
	var wg sync.WaitGroup
	for g := range labels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, op := range plan.Ops {
				labels[g] = append(labels[g], op.Label())
			}
		}()
	}
	wg.Wait()
	for i, op := range plan.Ops {
		want := op.Kind.String()
		if op.Node != nil {
			want += " " + op.Node.Label()
		}
		for g := range labels {
			if labels[g][i] != want {
				t.Fatalf("goroutine %d, op %d: %q, want %q", g, i, labels[g][i], want)
			}
		}
		if a := testing.AllocsPerRun(10, func() { _ = op.Label() }); a != 0 {
			t.Fatalf("op %d: a named operator's Label allocates %v times", i, a)
		}
	}
}
