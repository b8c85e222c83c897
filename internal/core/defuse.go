package core

import (
	"slices"

	"dmac/internal/dep"
	"dmac/internal/expr"
)

// use is one value's row of a plan's def-use table, the operator-output →
// later-input graph that stages are cut on (§5.2) and lineage recovery and
// caching walk (§6.4). The producer is StageOps(stage)[at]; readers are in
// plan order, once per input edge, and last is the latest stage among them
// (0 for none); kept marks a value among the Values of the plan's Keeps, and
// whole one of them that some variable keeps with no complete instance (a
// partition or a hash-placed one) beside it.
type use struct {
	stage, at int
	readers   []*Op
	last      int
	kept      bool
	whole     bool
}

// Keep is one session variable a run writes when it ends: its fold-back.
type Keep struct {
	// Var holds Ref's matrix in Ref's orientation: a value stored the other
	// way is transposed locally (no communication) before it is kept.
	Var string
	Ref expr.Ref
	// Assign reports that the program assigns Var, so the run replaces it.
	// Otherwise Var is an input the program leaves alone, and the run adds
	// the instances it repartitioned, as Spark's RDD cache would (§6.4).
	Assign bool
	// Values are the instances folded back, in ascending ID order. Each goes
	// in under its scheme (after the transpose) unless Var already holds one
	// there: the first instance with a scheme wins.
	Values []ValueID
}

// keep decides what the session keeps when a run ends, and marks those
// values kept. For each assignment, in program order: every scheme-carrying
// instance of the assigned matrix (so DMac reuses both W(r) and W(b) across
// GNMF iterations) or, for a matrix held only hash-placed (always, in a Local
// plan), its primary value. Then, for each input variable the program reads
// and assigns nowhere, in the plan order of its leaves: every scheme-carrying,
// untransposed instance (possibly none).
func (p *Plan) keep() {
	p.keeps = nil
	assigned := make(map[string]bool)
	for _, a := range p.Program.Assignments() {
		assigned[a.Name] = true
		p.keeps = append(p.keeps, Keep{Var: a.Name, Ref: a.Ref, Assign: true})
	}
	for _, op := range p.Ops {
		// A variable cached under several schemes has a leaf per scheme; the
		// first carries the node.
		if (op.Kind == OpLoad || op.Kind == OpVar) && !assigned[op.Node.Name] && p.NodeValue[op.Node.ID] == op.Output {
			p.keeps = append(p.keeps, Keep{Var: op.Node.Name, Ref: expr.Ref{Node: op.Node}})
		}
	}
	for i := range p.keeps {
		k := &p.keeps[i]
		for _, v := range p.Values {
			if v.Matrix == k.Ref.Node.ID && v.Scheme != dep.SchemeNone && (k.Assign || !v.Transposed) {
				k.Values = append(k.Values, v.ID)
			}
		}
		if id, ok := p.NodeValue[k.Ref.Node.ID]; ok && k.Assign && len(k.Values) == 0 {
			k.Values = []ValueID{id}
		}
		// An input variable still holds the complete instance it had (Bind's
		// hash-placed one, or one a run kept); an assigned one holds what its
		// Keep has. A broadcast kept with only broadcasts beside it is the
		// variable's one copy, so it must be everywhere.
		whole := k.Assign && !slices.ContainsFunc(k.Values, func(id ValueID) bool { return p.Values[id].Scheme != dep.Broadcast })
		for _, id := range k.Values {
			p.uses[id].kept = true
			p.uses[id].whole = p.uses[id].whole || whole
		}
	}
}

// Keeps returns what the session keeps when a run ends, in the order a run
// folds it back: assignments in program order, then input variables. The
// slice is the plan's and must not be modified.
func (p *Plan) Keeps() []Keep { return p.keeps }

// LiveAfter returns, in ascending ID order, the values materialized by stages
// up to and including stage that anything after it can still read: an input
// of an operator in a later stage, or a value the session keeps (Keeps). It
// is the set a run restored to the end of stage needs in order to finish
// exactly as an uninterrupted one would; every other value is dead by then.
func (p *Plan) LiveAfter(stage int) []ValueID {
	var live []ValueID
	for id, u := range p.uses {
		if u.stage <= stage && (u.last > stage || u.kept) {
			live = append(live, ValueID(id))
		}
	}
	return live
}

// linkStages derives the edges of each stage's operator graph (Op.After),
// once per plan, so a cached plan carries them: an edge from the producer of
// every value to each operator of the same stage that reads it, and a chain
// through the operators that run no kernel, in plan order.
func (p *Plan) linkStages() {
	for _, ops := range p.stageOps {
		chain := -1
		for j, op := range ops {
			op.After = nil
			for _, id := range op.Inputs {
				if u := &p.uses[id]; u.stage == op.Stage {
					op.After = append(op.After, u.at)
				}
			}
			if !op.Kernel() {
				if chain >= 0 {
					op.After = append(op.After, chain)
				}
				chain = j
			}
		}
	}
}

// reach derives, once per plan, the Reach of each broadcast and of each leaf
// that reads a session (b) instance from the def-use table.
func (p *Plan) reach() {
	for _, op := range p.Ops {
		op.Reach = nil
		switch {
		case op.Kind == OpBroadcast:
			if vals, ok := p.holders(op.Output, nil, false); ok && len(vals) > 0 {
				op.Reach = p.workers(vals)
			}
		case p.readsReplica(op):
			if vals, ok := p.holders(op.Output, []ValueID{}, true); ok {
				op.Reach = p.workers(vals)
			}
		}
	}
}

// workers returns, in ascending order, the workers that hold a block of one
// of vals cut at the plan's block size: empty for no value, nil when that is
// every worker or the plan has no block size.
func (p *Plan) workers(vals []ValueID) []int {
	bs, on, out := p.blockSize, make([]bool, p.Workers), []int{}
	for _, id := range vals {
		v := p.Values[id]
		n := p.Program.Nodes()[v.Matrix]
		rows, cols := n.Rows, n.Cols
		if v.Transposed {
			rows, cols = cols, rows
		}
		for bi := 0; bs > 0 && bi*bs < rows && len(out) < p.Workers; bi++ {
			for bj := 0; bj*bs < cols && len(out) < p.Workers; bj++ {
				if w := dep.Owner(v.Scheme, bi, bj, (cols+bs-1)/bs, p.Workers); !on[w] {
					on[w], out = true, append(out, w)
				}
			}
		}
	}
	if len(vals) > 0 && (bs < 1 || len(out) == p.Workers) {
		return nil
	}
	slices.Sort(out)
	return out
}

// tooNarrow lists the variables of the plan's (b) leaves whose replica, on
// the workers replicas lists, misses one the leaf's Op.Reach names.
func (p *Plan) tooNarrow(replicas map[string][]int) []string {
	var out []string
	for _, op := range p.Ops {
		if !p.readsReplica(op) {
			continue
		}
		if has, ok := replicas[op.Node.Name]; ok && (op.Reach == nil || slices.ContainsFunc(op.Reach, func(w int) bool { return !slices.Contains(has, w) })) {
			out = append(out, op.Node.Name)
		}
	}
	return out
}

// readsReplica reports whether op is a leaf reading a session (b) instance.
func (p *Plan) readsReplica(op *Op) bool {
	return (op.Kind == OpLoad || op.Kind == OpVar) && p.Values[op.Output].Scheme == dep.Broadcast
}

// holders appends to to the values whose holders read broadcast value id
// (see Op.Reach), following lazy transposes to their readers. With forwards,
// a reader that sends the copy on (a partition, a broadcast or a shuffled
// transpose) adds none: any one holder serves it. It reports false when every
// worker needs the copy: a variable keeps the value as its only complete copy
// (use.whole), or a reader of another kind reads it.
func (p *Plan) holders(id ValueID, to []ValueID, forwards bool) ([]ValueID, bool) {
	u := &p.uses[id]
	if u.whole {
		return nil, false
	}
	for _, r := range u.readers {
		var h ValueID
		switch {
		case r.Kind == OpCompute && r.Strategy == RMM1 && r.Inputs[0] == id && r.Inputs[1] != id:
			h = r.Inputs[1]
		case r.Kind == OpCompute && r.Strategy == RMM2 && r.Inputs[1] == id && r.Inputs[0] != id:
			h = r.Inputs[0]
		case r.Kind == OpExtract:
			h = r.Output
		case r.Kind == OpTranspose && r.CommBytes == 0:
			var ok bool
			if to, ok = p.holders(r.Output, to, forwards); !ok {
				return nil, false
			}
			continue
		case forwards && (r.Kind == OpPartition || r.Kind == OpBroadcast || r.Kind == OpTranspose):
			continue
		default:
			return nil, false
		}
		if !slices.Contains(to, h) {
			to = append(to, h)
		}
	}
	return to, true
}

// licenseInPlace decides, once per plan, which cell-wise operators may write
// their result into the blocks of an input instead of fresh ones. An input
// qualifies when it is the untransposed result of a multiplication of the
// operator's own stage, this read is its only one in the plan, and the
// session does not keep it. Such a value is dead the moment the operator has
// read it: no later stage reads it, so no snapshot holds it and the session
// never sees it; and it is dense, as every product is. A retry of the stage
// runs the multiplication again before the operator. The first qualifying
// input wins.
func (p *Plan) licenseInPlace() {
	for _, op := range p.Ops {
		op.InPlace = -1
		if op.Kind != OpCompute || !op.Node.Kind.IsCellwise() {
			continue
		}
		for i, id := range op.Inputs {
			u := &p.uses[id]
			from := p.stageOps[u.stage-1][u.at]
			if from.Kind == OpCompute && from.Node.Kind == expr.KindMul && u.stage == op.Stage &&
				!p.Values[id].Transposed && len(u.readers) == 1 && !u.kept {
				op.InPlace = i
				break
			}
		}
	}
}
