package core

import (
	"fmt"
	"maps"
	"slices"

	"dmac/internal/cost"
	"dmac/internal/dep"
	"dmac/internal/expr"
)

// Config parameterizes plan generation.
type Config struct {
	// Workers is N, the number of workers in the cluster.
	Workers int
	// Vars lists the schemes under which each session variable is already
	// materialized from previous program executions. A variable cached with
	// several schemes contributes several output events (e.g. V kept both
	// row-partitioned and broadcast).
	Vars map[string][]dep.Scheme
	// DisablePullUp turns off the Pull-Up Broadcast heuristic (Heuristic 1)
	// for ablation studies.
	DisablePullUp bool
	// DisableReassign turns off the Re-assignment heuristic (Heuristic 2):
	// CPMM outputs are pinned immediately to their first allowed scheme
	// instead of being left flexible for consumers.
	DisableReassign bool
	// DisableCPMM removes the CPMM strategy from the candidate set, for
	// ablating the strategy space.
	DisableCPMM bool
	// BlockSize is the session's block side (Eq. 3), which places every
	// value's blocks (dep.Owner) and so gives each broadcast its Op.Reach; 0
	// places nothing, and every broadcast reaches every worker.
	BlockSize int
	// Replicas lists the workers each variable's kept (b) instance was
	// copied to, for one copied to fewer than every worker. A plan whose
	// readers need more passes it over (Plan.TooNarrow).
	Replicas map[string][]int
}

// Generate builds a communication-efficient execution plan for a matrix
// program by exploiting matrix dependencies — Algorithm 1 of the paper. It
// walks the operators in decomposition order, selects the execution strategy
// with minimum communication cost against the accumulated output events
// (Eq. 1), applies the Re-assignment and Pull-Up Broadcast heuristics, and
// materializes extended operators for the residual dependencies. Stages are
// assigned before returning.
func Generate(p *expr.Program, cfg Config) (*Plan, error) {
	return generate(p, cfg, false)
}

// GenerateSystemMLS builds the SystemML-S baseline plan (Section 6.1): the
// same operator strategies and the same runtime, but no matrix-dependency
// analysis. Every operator's input matrices undergo a repartition phase —
// cached values never satisfy a scheme requirement directly — and reading a
// transpose pays an additional shuffle to materialize it.
func GenerateSystemMLS(p *expr.Program, cfg Config) (*Plan, error) {
	return generate(p, cfg, true)
}

// GenerateLocal builds the plan of the single-machine reference ("R" in the
// paper's figures): every value hash-placed on one worker, every program
// operator one OpCompute with strategy Local, and one local transpose per
// transposed input edge, so every transposed read pays its own transpose.
// Nothing communicates and no operator is licensed to overwrite an input, so
// the plan is one stage and stays the unlicensed reference the planners'
// results are compared against.
func GenerateLocal(p *expr.Program) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := newGen(p, Config{Workers: 1}, false)
	for _, idx := range p.OperatorOrder() {
		n := p.Nodes()[idx]
		if n.Kind == expr.KindLoad || n.Kind == expr.KindVar {
			if err := g.emit(n); err != nil {
				return nil, err
			}
			continue
		}
		op := &Op{Kind: OpCompute, Node: n, Strategy: Local, ScalarName: g.scalarName[n.ID], Output: -1}
		for _, in := range n.Inputs {
			src, dtype := g.plan.Value(g.plan.NodeValue[in.Node.ID]), dep.Reference
			if in.Transposed {
				src, dtype = g.localTranspose(src), dep.Transpose
			}
			op.Inputs = append(op.Inputs, src.ID)
			op.InDeps = append(op.InDeps, dtype)
		}
		if !n.Kind.IsAggregate() {
			op.Output = g.newValue(n.ID, false, dep.SchemeNone, nil).ID
			g.plan.NodeValue[n.ID] = op.Output
		}
		g.addOp(op)
	}
	g.plan.AssignStages()
	return g.plan, nil
}

// generate plans p under cfg, again without each kept replica too narrow
// for its readers (Config.Replicas) until none is: the one place a plan is
// made twice.
func generate(p *expr.Program, cfg Config, baseline bool) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("core: need at least 1 worker, got %d", cfg.Workers)
	}
	var passed []string
	for {
		g := newGen(p, cfg, baseline)
		for _, idx := range p.OperatorOrder() {
			if err := g.emit(p.Nodes()[idx]); err != nil {
				return nil, err
			}
		}
		g.plan.finalizeFlexible()
		g.plan.AssignStages()
		g.plan.licenseInPlace()
		narrow := g.plan.tooNarrow(cfg.Replicas)
		if len(narrow) == 0 {
			g.plan.TooNarrow = passed
			return g.plan, nil
		}
		passed = append(passed, narrow...)
		cfg.Vars = maps.Clone(cfg.Vars)
		for _, name := range narrow {
			cfg.Vars[name] = slices.DeleteFunc(slices.Clone(cfg.Vars[name]), func(s dep.Scheme) bool { return s == dep.Broadcast })
		}
	}
}

func newGen(p *expr.Program, cfg Config, baseline bool) *gen {
	g := &gen{
		plan: &Plan{
			Program:   p,
			Workers:   cfg.Workers,
			NodeValue: make(map[dep.MatrixID]ValueID),
			blockSize: cfg.BlockSize,
		},
		cfg:        cfg,
		baseline:   baseline,
		scalarName: make(map[dep.MatrixID]string),
	}
	for _, so := range p.ScalarOuts() {
		g.scalarName[so.Node.ID] = so.Name
	}
	return g
}

// inputRecord remembers an input event that was satisfied through a
// partition operator; the Pull-Up Broadcast heuristic rewrites such
// operators when a later input event broadcasts the same matrix.
type inputRecord struct {
	matrix      dep.MatrixID
	partitionOp int // index into plan.Ops
}

type gen struct {
	plan       *Plan
	cfg        Config
	baseline   bool
	scalarName map[dep.MatrixID]string
	inputs     []inputRecord
}

// req is an input event being satisfied: operator op requires matrix
// (possibly transposed) with the given scheme.
type req struct {
	matrix     dep.MatrixID
	transposed bool
	scheme     dep.Scheme
	size       int64
}

func (g *gen) newValue(m dep.MatrixID, transposed bool, scheme dep.Scheme, flexible []dep.Scheme) *Value {
	v := &Value{
		ID:         ValueID(len(g.plan.Values)),
		Matrix:     m,
		Transposed: transposed,
		Scheme:     scheme,
		flexible:   flexible,
	}
	g.plan.Values = append(g.plan.Values, v)
	return v
}

// addOp appends op to the plan. No operator overwrites an input until
// licenseInPlace grants it.
func (g *gen) addOp(op *Op) int {
	op.InPlace = -1
	g.plan.Ops = append(g.plan.Ops, op)
	return len(g.plan.Ops) - 1
}

// emit plans a single program node.
func (g *gen) emit(n *expr.Node) error {
	switch n.Kind {
	case expr.KindLoad, expr.KindVar:
		// A leaf reads the session's instances of its variable, one leaf per
		// scheme. A fresh load, or a variable held only hash-placed, starts
		// hash-partitioned (SchemeNone): reading it with any concrete scheme
		// pays an initial shuffle.
		kind := OpVar
		if n.Kind == expr.KindLoad {
			kind = OpLoad
		}
		schemes := g.cfg.Vars[n.Name]
		if len(schemes) == 0 {
			schemes = []dep.Scheme{dep.SchemeNone}
		}
		for i, s := range schemes {
			v := g.newValue(n.ID, false, s, nil)
			g.addOp(&Op{Kind: kind, Node: n, Output: v.ID})
			if i == 0 {
				g.plan.NodeValue[n.ID] = v.ID
			}
		}
		return nil
	}

	cands := candidatesFor(n, g.cfg.Workers)
	if g.cfg.DisableCPMM && n.Kind == expr.KindMul {
		kept := cands[:0:0]
		for _, c := range cands {
			if c.strategy != CPMM {
				kept = append(kept, c)
			}
		}
		cands = kept
	}
	if len(cands) == 0 {
		return fmt.Errorf("core: no execution strategy for node kind %v", n.Kind)
	}
	// Equation 1: select the strategy with minimum total communication.
	best, bestCost := -1, int64(-1)
	for i, c := range cands {
		total := c.outCost
		for slot, scheme := range c.ins {
			in := n.Inputs[slot]
			r := req{
				matrix:     in.Node.ID,
				transposed: in.Transposed,
				scheme:     scheme,
				size:       cost.SizeBytes(in.Node.Rows, in.Node.Cols, in.Node.Sparsity),
			}
			_, _, _, inCost := g.bestDep(r)
			total += inCost
		}
		if best == -1 || total < bestCost {
			best, bestCost = i, total
		}
	}
	chosen := cands[best]

	// Materialize the inputs, applying the heuristics (Lines 10-24).
	op := &Op{
		Kind:       OpCompute,
		Node:       n,
		Strategy:   chosen.strategy,
		ScalarName: g.scalarName[n.ID],
		Output:     -1,
	}
	for slot, scheme := range chosen.ins {
		in := n.Inputs[slot]
		r := req{
			matrix:     in.Node.ID,
			transposed: in.Transposed,
			scheme:     scheme,
			size:       cost.SizeBytes(in.Node.Rows, in.Node.Cols, in.Node.Sparsity),
		}
		vid, dtype := g.materialize(r)
		op.Inputs = append(op.Inputs, vid)
		op.InDeps = append(op.InDeps, dtype)
	}
	// The output event: CPMM outputs stay flexible between Row and Col
	// until a consumer pins them (Re-assignment, Heuristic 2).
	if !n.Kind.IsAggregate() {
		var out *Value
		if len(chosen.outSchemes) > 1 && !g.cfg.DisableReassign {
			out = g.newValue(n.ID, false, chosen.outSchemes[0], chosen.outSchemes)
		} else {
			out = g.newValue(n.ID, false, chosen.outSchemes[0], nil)
		}
		op.Output = out.ID
		g.plan.NodeValue[n.ID] = out.ID
	}
	op.CommBytes = chosen.outCost
	if n.Kind.IsAggregate() {
		// Driver collect of one partial scalar per worker.
		op.CommBytes = 8 * int64(g.cfg.Workers)
	}
	g.addOp(op)
	return nil
}

// bestDep finds the cheapest way to satisfy an input event from the
// available output events (the OutputSet of Algorithm 1). It returns the
// source value, the scheme the source would be read with (relevant for
// flexible values), the dependency type, and the communication cost.
// In baseline (SystemML-S) mode dependencies are ignored: every read pays a
// hash repartition, plus an extra shuffle for a transposed read.
func (g *gen) bestDep(r req) (src *Value, srcScheme dep.Scheme, dtype dep.Type, cost int64) {
	if g.baseline {
		src = g.anyValue(r.matrix)
		cost = g.hashCost(r)
		return src, src.Scheme, g.hashDepType(r), cost
	}
	bestRank := 0
	for _, v := range g.plan.Values {
		if v.Matrix != r.matrix {
			continue
		}
		schemes := v.flexible
		if v.Pinned() {
			schemes = []dep.Scheme{v.Scheme}
		}
		for _, s := range schemes {
			t, c := g.classify(r, v, s)
			if t == dep.NoDependency {
				continue
			}
			rank := depRank(t)
			if src == nil || c < cost || (c == cost && rank < bestRank) {
				src, srcScheme, dtype, cost, bestRank = v, s, t, c, rank
			}
		}
	}
	return src, srcScheme, dtype, cost
}

// classify returns the dependency type and cost of reading value v (assumed
// at scheme s) for requirement r. Hash-partitioned sources (SchemeNone)
// always pay a shuffle.
func (g *gen) classify(r req, v *Value, s dep.Scheme) (dep.Type, int64) {
	transposed := r.transposed != v.Transposed
	if s == dep.SchemeNone {
		t := g.hashDepTypeTr(transposed, r.scheme)
		return t, t.Cost(r.size, g.cfg.Workers)
	}
	t := dep.Classify(transposed, s, r.scheme)
	return t, t.Cost(r.size, g.cfg.Workers)
}

// hashDepTypeTr maps a read from hash-partitioned data onto the equivalent
// communication dependency.
func (g *gen) hashDepTypeTr(transposed bool, want dep.Scheme) dep.Type {
	if want == dep.Broadcast {
		if transposed {
			return dep.TransposeBroadcast
		}
		return dep.BroadcastDep
	}
	if transposed {
		return dep.TransposePartition
	}
	return dep.Partition
}

func (g *gen) hashDepType(r req) dep.Type { return g.hashDepTypeTr(r.transposed, r.scheme) }

// hashCost is the baseline read cost: a repartition (|A| or N|A|) plus an
// extra |A| shuffle when the read is transposed (SystemML-S materializes
// transposes with a separate job, Section 1).
func (g *gen) hashCost(r req) int64 {
	c := r.size
	if r.scheme == dep.Broadcast {
		c = int64(g.cfg.Workers) * r.size
	}
	if r.transposed {
		c += r.size
	}
	return c
}

// anyValue returns some value of the matrix (baseline mode does not care
// which).
func (g *gen) anyValue(m dep.MatrixID) *Value {
	for _, v := range g.plan.Values {
		if v.Matrix == m {
			return v
		}
	}
	panic(fmt.Sprintf("core: no value for matrix m%d", m))
}

// depRank orders equally-priced dependencies: direct reuse beats a local
// transform, which beats a two-step local transform.
func depRank(t dep.Type) int {
	switch t {
	case dep.Reference:
		return 0
	case dep.Transpose, dep.Extract:
		return 1
	case dep.ExtractTranspose:
		return 2
	case dep.Partition, dep.BroadcastDep:
		return 3
	default: // TransposePartition, TransposeBroadcast
		return 4
	}
}

// materialize satisfies an input event, inserting extended operators as
// needed, and returns the value to wire into the consuming operator along
// with the dependency type that was satisfied.
func (g *gen) materialize(r req) (ValueID, dep.Type) {
	if g.baseline {
		return g.materializeBaseline(r)
	}
	src, srcScheme, dtype, cost := g.bestDep(r)
	if src == nil {
		panic(fmt.Sprintf("core: no source for matrix m%d", r.matrix))
	}
	// Heuristic 2 (Re-assignment): reading a flexible output pins it to the
	// scheme that minimizes this input's cost.
	if !src.Pinned() {
		src.Scheme = srcScheme
		src.flexible = nil
	}
	// Heuristic 1 (Pull-Up Broadcast): this event needs a broadcast that
	// costs communication, and an earlier input event already paid a
	// partition for the same matrix. Broadcasting at the earlier operator
	// serves both: the earlier requirement becomes a local extract.
	if cost > 0 && dtype.NeedsBroadcast() && !g.cfg.DisablePullUp {
		if _, ok := g.pullUpBroadcast(r); ok {
			src, srcScheme, dtype, cost = g.bestDep(r)
		}
	}
	switch dtype {
	case dep.Reference:
		return src.ID, dtype
	case dep.Transpose:
		return g.localTranspose(src).ID, dtype
	case dep.Extract:
		return g.extract(src, r.scheme).ID, dtype
	case dep.ExtractTranspose:
		ex := g.extract(src, r.scheme.Opposite())
		return g.localTranspose(ex).ID, dtype
	case dep.Partition, dep.TransposePartition:
		cur := src
		if r.transposed != cur.Transposed {
			cur = g.localTranspose(cur)
		}
		out := g.partition(cur, r.scheme, r.size)
		g.inputs = append(g.inputs, inputRecord{matrix: r.matrix, partitionOp: len(g.plan.Ops) - 1})
		return out.ID, dtype
	case dep.BroadcastDep, dep.TransposeBroadcast:
		cur := src
		if r.transposed != cur.Transposed {
			cur = g.localTranspose(cur)
		}
		return g.broadcast(cur, r.size).ID, dtype
	default:
		panic(fmt.Sprintf("core: unexpected dependency type %v", dtype))
	}
}

// materializeBaseline wires a baseline read: always a fresh shuffle from
// whatever instance exists, with an extra transpose job when needed.
func (g *gen) materializeBaseline(r req) (ValueID, dep.Type) {
	src := g.anyValue(r.matrix)
	dtype := g.hashDepType(r)
	cur := src
	if r.transposed != cur.Transposed {
		// Transpose job: a full shuffle of |A| in MapReduce-style systems.
		t := g.newValue(cur.Matrix, !cur.Transposed, cur.Scheme.Opposite(), nil)
		g.addOp(&Op{Kind: OpTranspose, Inputs: []ValueID{cur.ID}, Output: t.ID, CommBytes: r.size})
		cur = t
	}
	if r.scheme == dep.Broadcast {
		return g.broadcast(cur, r.size).ID, dtype
	}
	out := g.newValue(cur.Matrix, cur.Transposed, r.scheme, nil)
	g.addOp(&Op{Kind: OpPartition, Inputs: []ValueID{cur.ID}, Output: out.ID, CommBytes: r.size})
	return out.ID, dtype
}

// pullUpBroadcast applies Heuristic 1: find an earlier partition operator on
// the same matrix and rewrite it into broadcast + extract. Returns the new
// broadcast value.
func (g *gen) pullUpBroadcast(r req) (*Value, bool) {
	for i := len(g.inputs) - 1; i >= 0; i-- {
		rec := g.inputs[i]
		if rec.matrix != r.matrix {
			continue
		}
		pop := g.plan.Ops[rec.partitionOp]
		if pop.Kind != OpPartition {
			continue // already rewritten by a previous pull-up
		}
		srcID := pop.Inputs[0]
		srcVal := g.plan.Values[srcID]
		oldOut := g.plan.Values[pop.Output]
		// Rewrite: src -> broadcast -> b-value, then extract b-value back to
		// the scheme the old consumers expected. The old output value keeps
		// its ID so existing consumers stay wired.
		bval := g.newValue(srcVal.Matrix, srcVal.Transposed, dep.Broadcast, nil)
		pop.Kind = OpBroadcast
		pop.Output = bval.ID
		pop.CommBytes = int64(g.cfg.Workers) * r.size
		extract := &Op{
			Kind:   OpExtract,
			Inputs: []ValueID{bval.ID},
			Output: oldOut.ID,
		}
		// Insert the extract right after the rewritten operator.
		g.plan.Ops = append(g.plan.Ops, nil)
		copy(g.plan.Ops[rec.partitionOp+2:], g.plan.Ops[rec.partitionOp+1:])
		g.plan.Ops[rec.partitionOp+1] = extract
		// Fix recorded op indices shifted by the insertion.
		for j := range g.inputs {
			if g.inputs[j].partitionOp > rec.partitionOp {
				g.inputs[j].partitionOp++
			}
		}
		return bval, true
	}
	return nil, false
}

func (g *gen) localTranspose(src *Value) *Value {
	out := g.newValue(src.Matrix, !src.Transposed, src.Scheme.Opposite(), nil)
	g.addOp(&Op{Kind: OpTranspose, Inputs: []ValueID{src.ID}, Output: out.ID})
	return out
}

func (g *gen) extract(src *Value, scheme dep.Scheme) *Value {
	out := g.newValue(src.Matrix, src.Transposed, scheme, nil)
	g.addOp(&Op{Kind: OpExtract, Inputs: []ValueID{src.ID}, Output: out.ID})
	return out
}

func (g *gen) partition(src *Value, scheme dep.Scheme, size int64) *Value {
	out := g.newValue(src.Matrix, src.Transposed, scheme, nil)
	g.addOp(&Op{Kind: OpPartition, Inputs: []ValueID{src.ID}, Output: out.ID, CommBytes: size})
	return out
}

func (g *gen) broadcast(src *Value, size int64) *Value {
	out := g.newValue(src.Matrix, src.Transposed, dep.Broadcast, nil)
	g.addOp(&Op{Kind: OpBroadcast, Inputs: []ValueID{src.ID}, Output: out.ID, CommBytes: int64(g.cfg.Workers) * size})
	return out
}
