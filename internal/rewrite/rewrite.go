// Package rewrite implements the cross-operator algebraic rewriter that runs
// before plan generation (the ROADMAP's "MatFast-style" item; see "Scalable
// Relational Query Processing on Big Matrix Data" in PAPERS.md). The paper's
// planner picks the cheapest execution strategy per operator but never
// changes the program itself; this pass rewrites the program — preserving
// results exactly — so the planner starts from a cheaper expression:
//
//   - matrix-chain reordering: (AB)C vs A(BC), chosen by dynamic programming
//     over the planner's cost terms (2mkn FLOPs plus the worst-case dense
//     size of every intermediate);
//   - transpose pushdown: when every consumer reads a product transposed,
//     t(A%*%B) is rewritten to t(B)%*%t(A), turning a materialized transpose
//     into fused transpose-multiply reads (the kernels of PR 3);
//   - identity folding: X*1, X/1, X+0, X-0 disappear;
//   - dead-code elimination: values no assignment or scalar output can reach
//     are never planned;
//   - sparsity refinement: multiplication and cell-product outputs get
//     tighter sparsity estimates than the builder's worst case, propagated
//     through downstream operators so the planner sizes intermediates (and
//     picks dense vs sparse kernels) from better estimates;
//   - cell-wise fusion: a tree of cell-wise, scalar and element-wise function
//     operators whose intermediate values nothing else reads becomes one
//     operator (fuse.go), so the intermediates are never materialized.
//
// Every structural rule is gated on the pass's own cost model (ProgramCost)
// being non-increasing, and the differential harness in this package proves
// rewritten and unrewritten programs produce numerically equal results on
// both the Local and DMac engines, which plan differently and run on the same
// stage runner. Rewriting is deterministic and idempotent:
// rewriting a rewritten program is a fixed point (the fuzz target checks
// signature stability).
package rewrite

import (
	"fmt"
	"math"

	"dmac/internal/cost"
	"dmac/internal/dep"
	"dmac/internal/expr"
	"dmac/internal/matrix"
)

// Version identifies the rewrite-rule set. It participates in the engine's
// plan-cache signatures: bumping it invalidates every cached plan generated
// under older rules, so a binary with new rewrites can never be served a
// stale plan keyed by a pre-rewrite canonical form.
const Version = 2

// Rule names used in decisions, metrics counters and span events.
const (
	RuleChainReorder      = "chain-reorder"
	RuleTransposePushdown = "transpose-pushdown"
	RuleFoldIdentity      = "fold-identity"
	RuleDeadCode          = "dead-code"
	RuleSparsity          = "sparsity-refine"
	RuleFuseCellwise      = "fuse-cellwise"
)

// Config disables individual rule families (all enabled by default); used by
// ablation tests and the A/B bench.
type Config struct {
	DisableChainReorder      bool
	DisableTransposePushdown bool
	DisableFolding           bool
	DisableSparsity          bool
}

// Rewriter applies the algebraic rewrite pass. A Rewriter is stateless and
// safe for concurrent use by multiple engines.
type Rewriter struct {
	cfg Config
}

// New returns a rewriter with every rule enabled.
func New() *Rewriter { return &Rewriter{} }

// NewWithConfig returns a rewriter with the given rule toggles.
func NewWithConfig(cfg Config) *Rewriter { return &Rewriter{cfg: cfg} }

// Decision records one applied rewrite, with the model savings it was gated
// on: FLOPs (compute plus transposed-read charges) and bytes (worst-case
// intermediate sizes).
type Decision struct {
	Rule       string
	Node       string // the source-program value it applied to, e.g. "m4"
	Detail     string
	FLOPsSaved float64
	BytesSaved int64
}

// Result is the outcome of one Rewrite call.
type Result struct {
	// Program is the rewritten program (a fresh Program; the input is never
	// mutated). When nothing applied it is structurally identical to the
	// input but still a distinct object.
	Program *expr.Program
	// Changed reports whether the rewritten program differs from the input.
	Changed bool
	// Decisions lists the applied rewrites in application order.
	Decisions []Decision
	// CostBefore and CostAfter are ProgramCost of the input and the output;
	// the pass guarantees CostAfter <= CostBefore up to floating-point
	// rounding (the costs sum the same kinds of terms in different orders).
	CostBefore, CostAfter float64
}

// FLOPsSaved sums the predicted FLOP savings over all decisions.
func (r *Result) FLOPsSaved() float64 {
	var t float64
	for _, d := range r.Decisions {
		t += d.FLOPsSaved
	}
	return t
}

// BytesSaved sums the predicted byte savings over all decisions.
func (r *Result) BytesSaved() int64 {
	var t int64
	for _, d := range r.Decisions {
		t += d.BytesSaved
	}
	return t
}

// Rewrite returns a rewritten copy of the program. The input program is
// validated first and never mutated; the output program always validates.
//
// The pass iterates until no rule fires: one application can expose another
// (dead-code elimination frees a product to be absorbed into a chain,
// identity folding connects a product directly to a consuming product), and
// iterating is what makes Rewrite itself a fixed point. Termination is
// guaranteed — every structural rule strictly shrinks the program or its
// cost — but a defensive cap bounds the loop regardless. Cell-wise fusion runs
// once on the converged program: it exposes nothing to the other rules, and
// they see through a fused node no more than the planner does.
func (rw *Rewriter) Rewrite(src *expr.Program) (*Result, error) {
	res, err := rw.rewriteOnce(src)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 8 && res.Changed; i++ {
		next, err := rw.rewriteOnce(res.Program)
		if err != nil {
			return nil, err
		}
		if !next.Changed {
			break
		}
		res.Program = next.Program
		res.Decisions = append(res.Decisions, next.Decisions...)
	}
	fused, decisions, err := fuseCellwise(res.Program)
	if err != nil {
		return nil, err
	}
	res.Program = fused
	res.Decisions = append(res.Decisions, decisions...)
	res.CostAfter = ProgramCost(fused)
	res.Changed = !sameFormat(src, fused)
	return res, nil
}

func (rw *Rewriter) rewriteOnce(src *expr.Program) (res *Result, err error) {
	if verr := src.Validate(); verr != nil {
		return nil, fmt.Errorf("rewrite: invalid input program: %w", verr)
	}
	// The emitter reuses the expr builder methods, which panic on malformed
	// shapes; a panic here is a rewriter bug, surfaced as an error so the
	// engine can fall back to the unrewritten program.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("rewrite: internal error: %v", r)
		}
	}()
	ps := &pass{
		cfg:        rw.cfg,
		src:        src,
		out:        expr.NewProgram(),
		uses:       make(map[dep.MatrixID][]useRec),
		reachable:  make(map[dep.MatrixID]bool),
		absorbed:   make(map[dep.MatrixID]bool),
		pushdown:   make(map[dep.MatrixID]bool),
		scalarName: make(map[dep.MatrixID]string),
		mapped:     make(map[dep.MatrixID]expr.Ref),
	}
	ps.analyze()
	for _, n := range src.Nodes() {
		if !ps.reachable[n.ID] {
			if n.Kind != expr.KindLoad && n.Kind != expr.KindVar {
				ps.record(Decision{
					Rule:       RuleDeadCode,
					Node:       fmt.Sprintf("m%d", n.ID),
					Detail:     fmt.Sprintf("dropped unreachable %s", n.Label()),
					FLOPsSaved: nodeFlops(n),
					BytesSaved: cost.SizeBytes(n.Rows, n.Cols, n.Sparsity),
				})
			}
			continue
		}
		if ps.absorbed[n.ID] {
			continue // inlined into its consuming chain
		}
		ps.emit(n)
	}
	for _, a := range src.Assignments() {
		ps.out.Assign(a.Name, ps.mapRef(a.Ref))
	}
	if verr := ps.out.Validate(); verr != nil {
		return nil, fmt.Errorf("rewrite: produced invalid program: %w", verr)
	}
	return &Result{
		Program:    ps.out,
		Changed:    !sameFormat(src, ps.out),
		Decisions:  ps.decisions,
		CostBefore: ProgramCost(src),
		CostAfter:  ProgramCost(ps.out),
	}, nil
}

// ProgramCost is the rewriter's abstract cost of a program: modelled FLOPs
// of every operator (multiplications at their dense worst case, so chain
// comparisons are sparsity-independent), the worst-case byte footprint of
// every intermediate, and one estimated-NNZ charge per transposed read (the
// model cost the fused transpose-multiply kernels — and the executor's
// materializing transpose — pay per use). Every rule the pass applies is
// gated on this metric not increasing, which is the invariant the
// differential harness asserts.
func ProgramCost(p *expr.Program) float64 {
	var c float64
	for _, n := range p.Nodes() {
		c += nodeFlops(n) + nodeBytes(n)
		for _, in := range n.Inputs {
			if in.Transposed {
				c += transReadFlops(in.Node)
			}
		}
	}
	for _, a := range p.Assignments() {
		if a.Ref.Transposed {
			c += transReadFlops(a.Ref.Node)
		}
	}
	return c
}

// nodeFlops predicts a node's arithmetic from its shape alone: per-element
// coefficients apply to the full cell count, the worst case of the stored
// elements the executor will find and charge.
func nodeFlops(n *expr.Node) float64 {
	switch n.Kind {
	case expr.KindLoad, expr.KindVar:
		return 0
	case expr.KindMul:
		return cost.DenseMulFLOPs(n.Rows, n.Inputs[0].Cols(), n.Cols)
	case expr.KindCell:
		return cost.CellwiseFLOPs(n.Rows, n.Cols)
	case expr.KindUFunc:
		return cost.UFuncFLOPs(n.Rows, n.Cols)
	case expr.KindFused:
		// The sum of its links, each priced as the single operator.
		var f float64
		for _, l := range n.Tree.Links {
			f += cost.CellLinkFLOPs(l.Kind, n.Rows, n.Cols, cost.EstNNZ(n.Rows, n.Cols, 1))
		}
		return f
	case expr.KindNorm2:
		return cost.Norm2FLOPs(cost.EstNNZ(n.Inputs[0].Node.Rows, n.Inputs[0].Node.Cols, 1))
	case expr.KindSum, expr.KindValue: // value() is a one-cell sum
		return cost.SumFLOPs(cost.EstNNZ(n.Inputs[0].Node.Rows, n.Inputs[0].Node.Cols, 1))
	default: // KindScalar
		return cost.ScalarFLOPs(cost.EstNNZ(n.Rows, n.Cols, 1))
	}
}

func nodeBytes(n *expr.Node) float64 {
	switch n.Kind {
	case expr.KindLoad, expr.KindVar, expr.KindSum, expr.KindValue, expr.KindNorm2:
		return 0
	case expr.KindMul:
		// Fixed dense worst case: chain-reorder comparisons must not depend
		// on the (refinable) sparsity estimate of interior products.
		return float64(cost.SizeBytes(n.Rows, n.Cols, 1))
	default:
		return float64(cost.SizeBytes(n.Rows, n.Cols, n.Sparsity))
	}
}

// transReadFlops is the predicted charge of one transposed read of n.
func transReadFlops(n *expr.Node) float64 {
	return cost.TransposeFLOPs(cost.EstNNZ(n.Rows, n.Cols, n.Sparsity))
}

// useRec is one read of a node's value: by an operator (consumer != nil) or
// by an assignment (consumer == nil).
type useRec struct {
	consumer   *expr.Node
	transposed bool
}

type pass struct {
	cfg Config
	src *expr.Program
	out *expr.Program
	// Analysis over the source program.
	uses       map[dep.MatrixID][]useRec
	reachable  map[dep.MatrixID]bool
	absorbed   map[dep.MatrixID]bool // chain-interior muls inlined into their consumer
	pushdown   map[dep.MatrixID]bool // muls whose every read is transposed
	scalarName map[dep.MatrixID]string
	// mapped holds, per source node, the output-program reference that
	// replaces the *untransposed* read of it; transposed reads compose with
	// Ref.T, so a pushed-down product maps to newRef.T().
	mapped    map[dep.MatrixID]expr.Ref
	decisions []Decision
}

func (ps *pass) record(d Decision) { ps.decisions = append(ps.decisions, d) }

func (ps *pass) analyze() {
	// Reachability from the program's roots: assignments and scalar outputs.
	var stack []*expr.Node
	mark := func(n *expr.Node) {
		if !ps.reachable[n.ID] {
			ps.reachable[n.ID] = true
			stack = append(stack, n)
		}
	}
	for _, a := range ps.src.Assignments() {
		mark(a.Ref.Node)
	}
	for _, so := range ps.src.ScalarOuts() {
		ps.scalarName[so.Node.ID] = so.Name
		mark(so.Node)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, in := range n.Inputs {
			mark(in.Node)
		}
	}
	// Uses count only live readers: a value's dead consumers are dropped by
	// this same pass, so counting them would make absorption and pushdown
	// decisions differ between this pass and the next (breaking idempotence).
	for _, n := range ps.src.Nodes() {
		if !ps.reachable[n.ID] {
			continue
		}
		for _, in := range n.Inputs {
			ps.uses[in.Node.ID] = append(ps.uses[in.Node.ID], useRec{consumer: n, transposed: in.Transposed})
		}
	}
	for _, a := range ps.src.Assignments() {
		ps.uses[a.Ref.Node.ID] = append(ps.uses[a.Ref.Node.ID], useRec{transposed: a.Ref.Transposed})
	}
	// Transpose-pushdown candidates: products whose every read is transposed,
	// gated on the model gain of flipping the transposes onto the operands.
	if !ps.cfg.DisableTransposePushdown {
		for _, n := range ps.src.Nodes() {
			if n.Kind != expr.KindMul || !ps.reachable[n.ID] {
				continue
			}
			us := ps.uses[n.ID]
			if len(us) == 0 {
				continue
			}
			all := true
			for _, u := range us {
				if !u.transposed {
					all = false
					break
				}
			}
			if all && ps.pushdownGain(n) >= 0 {
				ps.pushdown[n.ID] = true
			}
		}
	}
	// Chain interiors: a product read exactly once, untransposed, by another
	// product is absorbed into that consumer's multiplication chain so the
	// chain head can reorder the whole chain at once.
	if !ps.cfg.DisableChainReorder {
		for _, n := range ps.src.Nodes() {
			if n.Kind != expr.KindMul || !ps.reachable[n.ID] || ps.pushdown[n.ID] {
				continue
			}
			us := ps.uses[n.ID]
			if len(us) != 1 {
				continue
			}
			u := us[0]
			if u.consumer == nil || u.consumer.Kind != expr.KindMul || u.transposed || !ps.reachable[u.consumer.ID] {
				continue
			}
			ps.absorbed[n.ID] = true
		}
	}
}

// pushdownGain is the model saving (in transposed-read NNZ charges, using
// the source program's conservative sparsity estimates) of rewriting
// t(A%*%B) reads into reads of t(B)%*%t(A): every consumer stops paying for
// the product's transpose, while each operand's read flips orientation.
func (ps *pass) pushdownGain(n *expr.Node) float64 {
	a, b := n.Inputs[0], n.Inputs[1]
	gain := float64(len(ps.uses[n.ID])) * transReadFlops(n)
	if a.Transposed {
		gain += transReadFlops(a.Node)
	} else {
		gain -= transReadFlops(a.Node)
	}
	if b.Transposed {
		gain += transReadFlops(b.Node)
	} else {
		gain -= transReadFlops(b.Node)
	}
	return gain
}

// mapRef resolves a source-program reference to its output-program
// replacement, composing the transpose flag.
func (ps *pass) mapRef(r expr.Ref) expr.Ref {
	m := ps.emit(r.Node)
	if r.Transposed {
		m = m.T()
	}
	return m
}

func (ps *pass) emit(n *expr.Node) expr.Ref {
	if r, ok := ps.mapped[n.ID]; ok {
		return r
	}
	var out expr.Ref
	switch n.Kind {
	case expr.KindLoad:
		out = ps.out.Load(n.Name, n.Rows, n.Cols, n.Sparsity)
	case expr.KindVar:
		out = ps.out.Var(n.Name, n.Rows, n.Cols, n.Sparsity)
	case expr.KindMul:
		out = ps.emitMul(n)
	case expr.KindCell:
		out = ps.emitCell(n.BinOp, ps.mapRef(n.Inputs[0]), ps.mapRef(n.Inputs[1]), n.Sparsity)
	case expr.KindScalar:
		out = ps.emitScalar(n)
	case expr.KindUFunc:
		out = ps.out.Func(n.UFunc, ps.mapRef(n.Inputs[0]))
	case expr.KindFused:
		ins := make([]expr.Ref, len(n.Inputs))
		for i, in := range n.Inputs {
			ins[i] = ps.mapRef(in)
		}
		out = ps.out.Fused(n.Tree, ins...)
		out.Node.Sparsity = n.Sparsity
	case expr.KindSum, expr.KindValue, expr.KindNorm2:
		out = appendAggregate(ps.out, n.Kind, ps.scalarName[n.ID], ps.mapRef(n.Inputs[0]))
	default:
		panic(fmt.Sprintf("rewrite: unknown node kind %v", n.Kind))
	}
	ps.mapped[n.ID] = out
	return out
}

// appendAggregate appends the aggregate of kind k over in, bound to name.
func appendAggregate(out *expr.Program, k expr.Kind, name string, in expr.Ref) expr.Ref {
	switch k {
	case expr.KindSum:
		return expr.Ref{Node: out.Sum(name, in)}
	case expr.KindValue:
		return expr.Ref{Node: out.Value(name, in)}
	default:
		return expr.Ref{Node: out.Norm2(name, in)}
	}
}

func (ps *pass) emitMul(n *expr.Node) expr.Ref {
	a, b := n.Inputs[0], n.Inputs[1]
	if ps.pushdown[n.ID] {
		// Every read of n is transposed: emit t(b)%*%t(a) (which equals
		// t(n)) and map n to its transpose, so consumers' transposed reads
		// resolve to plain reads of the new product.
		m := ps.out.Mul(ps.mapRef(b.T()), ps.mapRef(a.T()))
		ps.refineMul(m, n.Sparsity)
		ps.record(Decision{
			Rule:       RuleTransposePushdown,
			Node:       fmt.Sprintf("m%d", n.ID),
			Detail:     fmt.Sprintf("t(%s %%*%% %s) -> %s", a, b, m.Node.Label()),
			FLOPsSaved: ps.pushdownGain(n),
		})
		return m.T()
	}
	if !ps.cfg.DisableChainReorder && !ps.absorbed[n.ID] {
		if ops := ps.flatten(n); len(ops) >= 3 {
			return ps.emitChain(n, ops)
		}
	}
	m := ps.out.Mul(ps.mapRef(a), ps.mapRef(b))
	ps.refineMul(m, n.Sparsity)
	return m
}

// flatten collects the operands of the multiplication chain headed at n,
// descending through absorbed interior products, in left-to-right order.
func (ps *pass) flatten(n *expr.Node) []expr.Ref {
	var ops []expr.Ref
	var walk func(r expr.Ref)
	walk = func(r expr.Ref) {
		if !r.Transposed && r.Node.Kind == expr.KindMul && ps.absorbed[r.Node.ID] {
			walk(r.Node.Inputs[0])
			walk(r.Node.Inputs[1])
			return
		}
		ops = append(ops, r)
	}
	walk(n.Inputs[0])
	walk(n.Inputs[1])
	return ops
}

// mulCostParts is the chain DP's per-multiplication cost: dense FLOPs plus
// the worst-case dense footprint of the intermediate. All terms are exact
// integers in float64, so comparisons are deterministic.
func mulCostParts(m, k, n int) (flops, bytes float64) {
	return cost.DenseMulFLOPs(m, k, n), float64(cost.SizeBytes(m, n, 1))
}

func mulCost(m, k, n int) float64 {
	f, b := mulCostParts(m, k, n)
	return f + b
}

// chainParts is the cost of the original chain structure headed at n.
func (ps *pass) chainParts(n *expr.Node) (flops, bytes float64) {
	flops, bytes = mulCostParts(n.Inputs[0].Rows(), n.Inputs[0].Cols(), n.Inputs[1].Cols())
	for _, in := range n.Inputs {
		if !in.Transposed && in.Node.Kind == expr.KindMul && ps.absorbed[in.Node.ID] {
			f, b := ps.chainParts(in.Node)
			flops += f
			bytes += b
		}
	}
	return flops, bytes
}

// emitChain reorders the multiplication chain headed at n with the classic
// matrix-chain DP over mulCost, emitting the optimal tree only when it is
// strictly cheaper than the original structure (ties keep the original, so
// rewriting is a fixed point).
func (ps *pass) emitChain(head *expr.Node, ops []expr.Ref) expr.Ref {
	k := len(ops)
	dims := make([]int, k+1)
	dims[0] = ops[0].Rows()
	for i, r := range ops {
		dims[i+1] = r.Cols()
	}
	dp := make([][]float64, k)
	split := make([][]int, k)
	for i := range dp {
		dp[i] = make([]float64, k)
		split[i] = make([]int, k)
	}
	for length := 2; length <= k; length++ {
		for i := 0; i+length-1 < k; i++ {
			j := i + length - 1
			best := math.Inf(1)
			for s := i; s < j; s++ {
				c := dp[i][s] + dp[s+1][j] + mulCost(dims[i], dims[s+1], dims[j+1])
				if c < best {
					best = c
					split[i][j] = s
				}
			}
			dp[i][j] = best
		}
	}
	origFlops, origBytes := ps.chainParts(head)
	if dp[0][k-1] >= origFlops+origBytes {
		return ps.emitOrigChain(head)
	}
	var bestFlops, bestBytes float64
	var parts func(i, j int)
	parts = func(i, j int) {
		if i == j {
			return
		}
		s := split[i][j]
		parts(i, s)
		parts(s+1, j)
		f, b := mulCostParts(dims[i], dims[s+1], dims[j+1])
		bestFlops += f
		bestBytes += b
	}
	parts(0, k-1)
	var build func(i, j int) expr.Ref
	build = func(i, j int) expr.Ref {
		if i == j {
			return ps.mapRef(ops[i])
		}
		s := split[i][j]
		l, r := build(i, s), build(s+1, j)
		m := ps.out.Mul(l, r)
		ps.refineMul(m, 1)
		return m
	}
	out := build(0, k-1)
	ps.record(Decision{
		Rule:       RuleChainReorder,
		Node:       fmt.Sprintf("m%d", head.ID),
		Detail:     fmt.Sprintf("reordered %d-matrix chain", k),
		FLOPsSaved: origFlops - bestFlops,
		BytesSaved: int64(origBytes - bestBytes),
	})
	return out
}

// emitOrigChain re-emits the chain headed at n with its original structure,
// inlining absorbed interiors.
func (ps *pass) emitOrigChain(n *expr.Node) expr.Ref {
	in := func(r expr.Ref) expr.Ref {
		if !r.Transposed && r.Node.Kind == expr.KindMul && ps.absorbed[r.Node.ID] {
			return ps.emitOrigChain(r.Node)
		}
		return ps.mapRef(r)
	}
	m := ps.out.Mul(in(n.Inputs[0]), in(n.Inputs[1]))
	ps.refineMul(m, n.Sparsity)
	return m
}

func (ps *pass) emitCell(op matrix.BinOp, a, b expr.Ref, baseline float64) expr.Ref {
	var r expr.Ref
	switch op {
	case matrix.OpAdd:
		r = ps.out.Add(a, b)
	case matrix.OpSub:
		r = ps.out.Sub(a, b)
	case matrix.OpCellMul:
		r = ps.out.CellMul(a, b)
	case matrix.OpCellDiv:
		r = ps.out.CellDiv(a, b)
	default:
		panic(fmt.Sprintf("rewrite: unknown cell op %v", op))
	}
	if op == matrix.OpCellMul && !ps.cfg.DisableSparsity {
		// A cell product's true worst case is min(sa, sb) — a cell is
		// non-zero only where both operands are — tighter than the builder's
		// generic saturating sum.
		if s := math.Min(a.Node.Sparsity, b.Node.Sparsity); s < r.Node.Sparsity {
			old := r.Node.Sparsity
			sizeAt := func(sp float64) int64 { return cost.SizeBytes(r.Node.Rows, r.Node.Cols, sp) }
			r.Node.Sparsity = s
			// Record only a genuine refinement over the source node's
			// estimate; a re-pass re-deriving the same value stays silent.
			if s < baseline {
				ps.record(Decision{
					Rule:       RuleSparsity,
					Node:       r.String(),
					Detail:     fmt.Sprintf("cell product sparsity %.3g -> %.3g", old, s),
					BytesSaved: sizeAt(baseline) - sizeAt(s),
				})
			}
		}
	}
	return r
}

// refineMul tightens a freshly emitted product's worst-case sparsity (the
// builder pins it at 1) to the standard independence estimate
// 1-(1-sa*sb)^k. This is an estimate, not a bound — it only steers kernel
// selection and intermediate sizing, never values. baseline is the estimate
// the source node already carried: the refinement always applies, but is
// only recorded as a decision when it beats the baseline (so a re-pass over
// an already refined program records nothing).
func (ps *pass) refineMul(m expr.Ref, baseline float64) {
	if ps.cfg.DisableSparsity {
		return
	}
	n := m.Node
	a, b := n.Inputs[0], n.Inputs[1]
	pair := a.Node.Sparsity * b.Node.Sparsity
	s := 1 - math.Pow(1-pair, float64(a.Cols()))
	if s < 0 {
		s = 0
	}
	if s >= n.Sparsity {
		return
	}
	n.Sparsity = s
	if s < baseline {
		sizeAt := func(sp float64) int64 { return cost.SizeBytes(n.Rows, n.Cols, sp) }
		ps.record(Decision{
			Rule:       RuleSparsity,
			Node:       m.String(),
			Detail:     fmt.Sprintf("product sparsity %.3g -> %.3g", baseline, s),
			BytesSaved: sizeAt(baseline) - sizeAt(s),
		})
	}
}

func (ps *pass) emitScalar(n *expr.Node) expr.Ref {
	in := n.Inputs[0]
	if !ps.cfg.DisableFolding && n.Param == "" && isIdentityScalar(n.ScalarOp, n.Const) && ps.foldGain(n) >= 0 {
		mapped := ps.mapRef(in)
		ps.record(Decision{
			Rule:       RuleFoldIdentity,
			Node:       fmt.Sprintf("m%d", n.ID),
			Detail:     fmt.Sprintf("folded %s", n.Label()),
			FLOPsSaved: nodeFlops(n),
			BytesSaved: cost.SizeBytes(n.Rows, n.Cols, n.Sparsity),
		})
		return mapped
	}
	if n.Param != "" {
		return ps.out.ScalarParam(n.ScalarOp, ps.mapRef(in), n.Param)
	}
	return ps.out.Scalar(n.ScalarOp, ps.mapRef(in), n.Const)
}

// isIdentityScalar reports whether op with constant c maps every matrix to
// itself exactly. All four identities preserve sparsity, so folding never
// changes downstream estimates either.
func isIdentityScalar(op matrix.ScalarOp, c float64) bool {
	switch op {
	case matrix.ScalarMul, matrix.ScalarDiv:
		return c == 1
	case matrix.ScalarAdd, matrix.ScalarSub:
		return c == 0
	}
	return false
}

// foldGain gates identity folding: removing the node saves its FLOPs and
// footprint, but when its input is read transposed, every consumer of the
// folded value inherits that transposed read (there are len(uses) of them,
// versus the single one the folded node paid for).
func (ps *pass) foldGain(n *expr.Node) float64 {
	gain := nodeFlops(n) + nodeBytes(n)
	if in := n.Inputs[0]; in.Transposed {
		gain += (1 - float64(len(ps.uses[n.ID]))) * transReadFlops(in.Node)
	}
	return gain
}
