package engine

import (
	"strings"
	"testing"

	"dmac/internal/dist"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/rewrite"
	"dmac/internal/workload"
)

func signatureProgram() *expr.Program {
	p := expr.NewProgram()
	a := p.Var("A", 12, 8, 1)
	b := p.Var("B", 8, 12, 1)
	p.Assign("out", p.Mul(a, b))
	return p
}

// Every program signature must carry the version prefix that encodes both
// the serialization format and the rewrite-rule version. A key recorded by a
// binary with a different rule set (or no prefix at all, as produced before
// the rewriter existed) must miss in a shared PlanCache.
func TestProgramSignatureVersionPrefix(t *testing.T) {
	sig := ProgramSignature(signatureProgram())
	prefix := signaturePrefix
	if !strings.HasPrefix(sig, prefix) {
		t.Fatalf("signature %q lacks prefix %q", sig, prefix)
	}
	if !strings.Contains(prefix, "rw") {
		t.Fatalf("prefix %q does not encode the rewrite version", prefix)
	}

	pc := NewPlanCache(8)
	e := New(DMac, dist.Config{Workers: 2}, 4)
	plan, err := e.Plan(signatureProgram())
	if err != nil {
		t.Fatal(err)
	}
	pc.Put(sig, plan)
	if pc.Get(sig) == nil {
		t.Fatal("exact signature missed")
	}
	// A legacy key — the same structure serialized without the version
	// prefix — must not be served.
	legacy := strings.TrimPrefix(sig, prefix)
	if pc.Get(legacy) != nil {
		t.Fatal("un-versioned legacy key hit the cache")
	}
	// Neither must a key minted under a different rewrite-rule version.
	other := "ps1;rw999|" + legacy
	if pc.Get(other) != nil {
		t.Fatal("foreign rewrite-version key hit the cache")
	}
}

// The signature of a fused operator spells its tree out. Two programs that
// differ only inside one — a constant, an operator, the name of a parameter,
// which operand a link reads — must not share a plan-cache key, or one job
// would run with the other's arithmetic.
func TestProgramSignatureEncodesFusedTree(t *testing.T) {
	build := func(edit func(t *matrix.CellTree)) *expr.Program {
		tree := &matrix.CellTree{Inputs: 2, Links: []matrix.CellLink{
			{Kind: matrix.LinkScalar, ScalarOp: matrix.ScalarMul, Const: 0.85, A: matrix.CellInput(0)},
			{Kind: matrix.LinkScalar, ScalarOp: matrix.ScalarMul, Param: "teleport", A: matrix.CellInput(1)},
			{Kind: matrix.LinkBin, BinOp: matrix.OpAdd, A: matrix.CellValue(0), B: matrix.CellValue(1)},
			{Kind: matrix.LinkFunc, UFunc: matrix.FuncAbs, A: matrix.CellValue(2)},
		}}
		edit(tree)
		p := expr.NewProgram()
		p.Assign("out", p.Fused(tree, p.Var("A", 12, 8, 1), p.Var("B", 12, 8, 1)))
		return p
	}
	base := ProgramSignature(build(func(*matrix.CellTree) {}))
	if again := ProgramSignature(build(func(*matrix.CellTree) {})); again != base {
		t.Fatalf("identical rebuilds differ:\n%s\n%s", base, again)
	}
	for name, edit := range map[string]func(t *matrix.CellTree){
		"constant":        func(t *matrix.CellTree) { t.Links[0].Const = 0.9 },
		"scalar operator": func(t *matrix.CellTree) { t.Links[0].ScalarOp = matrix.ScalarDiv },
		"parameter name":  func(t *matrix.CellTree) { t.Links[1].Param = "damping" },
		"parameter bound": func(t *matrix.CellTree) { t.Links[1].Param, t.Links[1].Const = "", 0.15 },
		"binary operator": func(t *matrix.CellTree) { t.Links[2].BinOp = matrix.OpSub },
		"function":        func(t *matrix.CellTree) { t.Links[3].UFunc = matrix.FuncSqrt },
		"operand":         func(t *matrix.CellTree) { t.Links[0].A, t.Links[1].A = matrix.CellInput(1), matrix.CellInput(0) },
		"operand order": func(t *matrix.CellTree) {
			t.Links[2].A, t.Links[2].B = matrix.CellValue(1), matrix.CellValue(0)
		},
	} {
		if got := ProgramSignature(build(edit)); got == base {
			t.Errorf("a different %s leaves the signature unchanged: %s", name, got)
		}
	}
}

// Two engines sharing one PlanCache, one with the rewriter attached and one
// without, must never cross-serve plans: the plan cache key (planInput)
// records whether the rewrite pass ran, so the same program yields distinct
// cache keys.
func TestSharedCacheRewriterIsolation(t *testing.T) {
	const bs = 4
	pc := NewPlanCache(16)

	run := func(withRewriter bool) {
		e := New(DMac, dist.Config{Workers: 2, LocalParallelism: 2}, bs)
		e.SetSharedPlanCache(pc)
		if withRewriter {
			e.SetRewriter(rewrite.New())
		}
		if err := e.Bind("A", workload.DenseRandom(1, 12, 8, bs)); err != nil {
			t.Fatal(err)
		}
		if err := e.Bind("B", workload.DenseRandom(2, 8, 12, bs)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(signatureProgram(), nil); err != nil {
			t.Fatal(err)
		}
	}

	run(false)
	hits0, _, entries0 := pc.Stats()
	if hits0 != 0 {
		t.Fatalf("first run hit an empty cache: %d", hits0)
	}
	run(true)
	hits1, _, entries1 := pc.Stats()
	if hits1 != 0 {
		t.Fatalf("rewriter-on engine was served a rewriter-off plan: %d hits", hits1)
	}
	if entries1 <= entries0 {
		t.Fatalf("rewriter-on run did not add its own entry: %d -> %d", entries0, entries1)
	}
	// A second rewriter-off engine does share the rewriter-off entry.
	run(false)
	hits2, _, _ := pc.Stats()
	if hits2 == 0 {
		t.Fatal("identical rewriter-off engines failed to share a plan")
	}
}

// planKey is the key e caches p's plan under against its current session.
func planKey(e *Engine, p *expr.Program) string {
	_, key := e.planInput(e.form(p, 0))
	return key
}

// The plan cache key must distinguish rewriter-on from rewriter-off sessions
// directly, even where the pass leaves the program as it was.
func TestPlanSignatureEncodesRewriter(t *testing.T) {
	p := signatureProgram()
	off := New(DMac, dist.Config{Workers: 2}, 4)
	on := New(DMac, dist.Config{Workers: 2}, 4)
	on.SetRewriter(rewrite.New())
	if planKey(off, p) == planKey(on, p) {
		t.Fatalf("plan keys identical with and without rewriter: %q", planKey(off, p))
	}
}

// TestPlanIndependentOfKernelConfig: a plan is a function of the planner,
// the program, the workers, the block size and the cached schemes
// (Algorithm 1). The kernel worker count of the host may reach neither the
// plan nor its cache key, even for a dense product whose blocks are as large
// as the kernels get. The block size is in the key, since it places the
// blocks a broadcast's readers run next to (Op.Reach), but it moves no
// operator, scheme or estimate: the plan text is the same at every block
// size. Plan only; nothing runs.
func TestPlanIndependentOfKernelConfig(t *testing.T) {
	defer matrix.SetKernelWorkers(matrix.KernelWorkers())
	prog := func() *expr.Program {
		p := expr.NewProgram()
		p.Assign("out", p.Mul(p.Var("A", 8192, 8192, 1), p.Var("B", 8192, 8192, 1)))
		return p
	}
	sigs := map[int]string{}
	var plan0 string
	for _, kw := range []int{1, 8} {
		for _, bs := range []int{512, 4096} {
			matrix.SetKernelWorkers(kw)
			e := New(DMac, dist.Config{Workers: 2}, bs)
			p := prog()
			pl, err := e.Plan(p)
			if err != nil {
				t.Fatal(err)
			}
			sig, text := planKey(e, p), pl.String()
			if plan0 == "" {
				plan0 = text
			}
			if sig0, ok := sigs[bs]; !ok {
				sigs[bs] = sig
			} else if sig != sig0 {
				t.Errorf("kernel workers %d, block size %d: plan key %q, want %q", kw, bs, sig, sig0)
			}
			if text != plan0 {
				t.Errorf("kernel workers %d, block size %d: plan\n%s\nwant\n%s", kw, bs, text, plan0)
			}
		}
	}
	if sigs[512] == sigs[4096] {
		t.Errorf("block sizes 512 and 4096 share the plan key %q", sigs[512])
	}
}
