// Package core implements the paper's primary contribution: the
// dependency-oriented cost model (Section 4.1), the execution-plan
// generation algorithm with its two heuristics (Section 4.2), and the stage
// scheduler (Section 5.2). The worst-case matrix size |A| the cost model
// multiplies (Section 5.1) comes from internal/cost. It also contains the
// SystemML-S baseline planner used for the controlled comparison of
// Section 6: the same strategy space and the same runtime, but no
// matrix-dependency analysis; and the one-stage, communication-free plan of
// the single-machine reference (GenerateLocal), which runs on that runtime
// too.
package core

import (
	"fmt"
	"strings"
	"sync/atomic"

	"dmac/internal/dep"
	"dmac/internal/expr"
)

// ValueID identifies a physical matrix instance in a plan: one logical
// matrix materialized with one scheme (and possibly transposed), like the
// W1(b) / W1ᵀ(b) / W1(r) nodes of Figure 3.
type ValueID int

// Value describes a physical matrix instance.
type Value struct {
	ID ValueID
	// Matrix is the logical matrix (program node) this value carries.
	Matrix dep.MatrixID
	// Transposed reports that the stored data is the transpose of the
	// logical matrix.
	Transposed bool
	// Scheme is the distribution scheme of the stored data. SchemeNone
	// denotes hash-partitioned data (fresh loads; every value of a Local
	// plan).
	Scheme dep.Scheme
	// flexible lists the schemes this value may still be pinned to; nil once
	// pinned. Only CPMM outputs start flexible (r|c).
	flexible []dep.Scheme
}

// Pinned reports whether the value's scheme is final.
func (v *Value) Pinned() bool { return len(v.flexible) == 0 }

// String renders the value like the node annotations of Figure 3.
func (v *Value) String() string {
	t := ""
	if v.Transposed {
		t = "ᵀ"
	}
	s := v.Scheme.String()
	if !v.Pinned() {
		parts := make([]string, len(v.flexible))
		for i, p := range v.flexible {
			parts[i] = p.String()
		}
		s = strings.Join(parts, "|")
	}
	return fmt.Sprintf("m%d%s(%s)", v.Matrix, t, s)
}

// OpKind discriminates plan operators: the compute operators of the program
// plus the five extended operators of Section 4.2.1 (partition, broadcast,
// transpose, reference, extract) and the leaf materialization operators.
type OpKind int

// Plan operator kinds.
const (
	// OpLoad binds a loaded input matrix into the plan: hash-partitioned when
	// fresh, otherwise a session instance of its name, as OpVar does.
	OpLoad OpKind = iota
	// OpVar binds a session variable instance (materialized by a previous
	// program) into the plan.
	OpVar
	// OpCompute executes a program operator with a chosen strategy.
	OpCompute
	// OpPartition repartitions a value to a Row or Col scheme (shuffle).
	OpPartition
	// OpBroadcast replicates a value to the workers that read it (Op.Reach).
	OpBroadcast
	// OpTranspose locally transposes a value (Row <-> Col, or Broadcast).
	OpTranspose
	// OpExtract locally filters a broadcast replica down to a Row or Col
	// partition.
	OpExtract
	// OpReference marks a direct reuse of an existing value (null op; kept
	// in the plan for fidelity with Section 4.2.1 and for plan printing).
	OpReference
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpLoad:
		return "load"
	case OpVar:
		return "var"
	case OpCompute:
		return "compute"
	case OpPartition:
		return "partition"
	case OpBroadcast:
		return "broadcast"
	case OpTranspose:
		return "transpose"
	case OpExtract:
		return "extract"
	case OpReference:
		return "reference"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one operator of an execution plan.
type Op struct {
	// Kind discriminates the operator.
	Kind OpKind
	// Node is the program node for OpLoad/OpVar/OpCompute (nil otherwise).
	Node *expr.Node
	// Strategy is the chosen execution strategy for OpCompute.
	Strategy Strategy
	// Inputs are the physical values consumed (empty for leaves).
	Inputs []ValueID
	// InDeps records the dependency type satisfied on each input edge of an
	// OpCompute (parallel to Inputs); informational.
	InDeps []dep.Type
	// Output is the produced value, or -1 for aggregates (driver scalars).
	Output ValueID
	// ScalarName is the driver scalar bound by an aggregate OpCompute.
	ScalarName string
	// CommBytes is the estimated communication this operator incurs.
	CommBytes int64
	// Stage is the un-interleaved stage index (1-based), assigned by
	// AssignStages.
	Stage int
	// InPlace is the index into Inputs of the value a cell-wise OpCompute may
	// overwrite with its result, -1 for none (see licenseInPlace).
	InPlace int
	// After lists, by position in StageOps(Stage), the operators of the same
	// stage this one waits for: the producers of its inputs and, unless it
	// runs a kernel (Kernel), the previous operator of the stage that does
	// not. Set by AssignStages.
	After []int
	// Reach lists, in ascending order, the workers a broadcast's copy must
	// reach: those holding a block, at the plan's block size (dep.Owner), of
	// the (c) partner of an RMM1 or the (r) partner of an RMM2 reading it, or
	// of an extract's output, through lazy transposes. Nil means every
	// worker: the readers run on all of them, the plan has no block size, a
	// variable keeps the copy with no complete instance beside it, or another
	// kind of operator reads it. A leaf reading a session (b) instance lists
	// the workers that instance must reach the same way, where a reader that
	// sends the copy on needs no worker; empty means none. Set by AssignStages.
	Reach []int

	label atomic.Pointer[string] // Label's value once made
}

// Label names the operator in traces: its kind, then its program node's
// label where it has one ("compute m0ᵀ %*% m0"). It is formatted on first
// use and kept, so every run of a cached plan, on any engine, shares one
// string; concurrent first uses may each format it, and store the same text.
func (op *Op) Label() string {
	if l := op.label.Load(); l != nil {
		return *l
	}
	l := op.Kind.String()
	if op.Node != nil {
		l += " " + op.Node.Label()
	}
	op.label.Store(&l)
	return l
}

// Kernel reports whether the operator runs block kernels of its own: a
// multiplication or a cell-wise operator. Only kernels overlap inside a
// stage; leaves, transposes, extracts, partitions, broadcasts and aggregates
// keep plan order among themselves (After).
func (op *Op) Kernel() bool {
	return op.Kind == OpCompute && (op.Node.Kind == expr.KindMul || op.Node.Kind.IsCellwise())
}

// Plan is an executable plan: operators in execution order over a store of
// physical values. Produced by the DMac planner (Generate), the
// SystemML-S baseline planner (GenerateSystemMLS) or the single-machine
// reference's (GenerateLocal).
type Plan struct {
	Program *expr.Program
	Workers int
	Ops     []*Op
	Values  []*Value
	// NodeValue maps each program node to the plan value carrying its
	// result (aggregates excluded).
	NodeValue map[dep.MatrixID]ValueID
	// Stages is the number of un-interleaved stages after AssignStages.
	Stages int
	// TooNarrow lists the variables whose kept replica (Config.Replicas)
	// misses a worker its readers run on: the plan broadcasts from their
	// complete instances instead, and a run drops those replicas first.
	TooNarrow []string
	// stageOps groups Ops by stage in plan order (stageOps[s-1] holds stage
	// s's), uses is the def-use table and keeps its fold-back (Keeps): all
	// set by AssignStages, and read-only after, like the plan PlanCache shares.
	stageOps [][]*Op
	uses     []use
	keeps    []Keep
	// blockSize is Config.BlockSize, the block side Reach places values at.
	blockSize int
}

// Value returns the value record for an ID.
func (p *Plan) Value(id ValueID) *Value { return p.Values[id] }

// StageOps returns the operators of stage s (1-based) in plan order. Running
// stages in ascending order, each in this order, is a valid topological order
// of the plan.
func (p *Plan) StageOps(s int) []*Op { return p.stageOps[s-1] }

// TotalCommBytes returns the estimated communication of the whole plan.
func (p *Plan) TotalCommBytes() int64 {
	var t int64
	for _, op := range p.Ops {
		t += op.CommBytes
	}
	return t
}

// finalizeFlexible pins any still-flexible value to its first allowed scheme
// (CPMM outputs default to Row when no consumer constrained them).
func (p *Plan) finalizeFlexible() {
	for _, v := range p.Values {
		if !v.Pinned() {
			v.Scheme = v.flexible[0]
			v.flexible = nil
		}
	}
}

// AssignStages divides the plan into un-interleaved stages (Section 5.2):
// network communication happens only between stages, so a communication
// operator publishes its output into the next stage, while local operators
// stay in the stage of their latest input. Every stage 1..Stages holds an
// operator: the first operator is a leaf, and each later one lands at most one
// stage past its latest input; a plan with no operators has no stages. It
// returns the stage count and keeps the stage index (StageOps), the def-use
// table (LiveAfter, Keeps), each stage's operator graph
// (Op.After) and each broadcast's reach (Op.Reach) on the plan.
func (p *Plan) AssignStages() int {
	p.uses = make([]use, len(p.Values))
	p.stageOps = nil
	for _, op := range p.Ops {
		in := 1
		for _, id := range op.Inputs {
			in = max(in, p.uses[id].stage)
		}
		stage := in
		// An operator that communicates — an extended partition/broadcast
		// operator, a CPMM aggregation, or a hash repartition charged on a
		// compute input edge — delivers its result in the following stage.
		if op.CommBytes > 0 {
			stage = in + 1
		}
		op.Stage = stage
		if stage > len(p.stageOps) {
			p.stageOps = append(p.stageOps, nil)
		}
		for _, id := range op.Inputs {
			u := &p.uses[id]
			u.readers, u.last = append(u.readers, op), max(u.last, stage)
		}
		if op.Output >= 0 {
			p.uses[op.Output].stage, p.uses[op.Output].at = stage, len(p.stageOps[stage-1])
		}
		p.stageOps[stage-1] = append(p.stageOps[stage-1], op)
	}
	p.Stages = len(p.stageOps)
	p.keep()
	p.linkStages()
	p.reach()
	return p.Stages
}

// String renders the plan as a table: one operator per line with its stage,
// strategy, inputs, dependency types, communication estimate and the input
// it overwrites.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %d ops, %d values, %d stages, est. comm %d bytes\n",
		len(p.Ops), len(p.Values), p.Stages, p.TotalCommBytes())
	for i, op := range p.Ops {
		fmt.Fprintf(&b, "%3d [s%d] %-9s", i, op.Stage, op.Kind)
		if op.Kind == OpCompute {
			fmt.Fprintf(&b, " %-7s %s", op.Strategy, op.Node.Label())
		} else if op.Node != nil {
			fmt.Fprintf(&b, " %s", op.Node.Label())
		}
		if len(op.Inputs) > 0 {
			ins := make([]string, len(op.Inputs))
			for j, id := range op.Inputs {
				ins[j] = p.Values[id].String()
				if j < len(op.InDeps) && op.InDeps[j] != dep.NoDependency {
					ins[j] += ":" + op.InDeps[j].String()
				}
			}
			fmt.Fprintf(&b, " <- %s", strings.Join(ins, ", "))
		}
		if op.Output >= 0 {
			fmt.Fprintf(&b, " -> %s", p.Values[op.Output])
		}
		if op.ScalarName != "" {
			fmt.Fprintf(&b, " -> $%s", op.ScalarName)
		}
		if op.CommBytes > 0 {
			fmt.Fprintf(&b, "  [comm %d]", op.CommBytes)
		}
		if op.InPlace >= 0 {
			fmt.Fprintf(&b, "  [in-place m%d]", p.Values[op.Inputs[op.InPlace]].Matrix)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// DOT renders the plan's value/operator DAG in Graphviz format, analogous
// to Figure 3: ellipse nodes are physical matrices annotated with schemes,
// edges are operators, dashed edges are local (communication-free).
func (p *Plan) DOT() string {
	var b strings.Builder
	b.WriteString("digraph plan {\n  rankdir=TB;\n  node [shape=ellipse];\n")
	for _, v := range p.Values {
		fmt.Fprintf(&b, "  v%d [label=%q];\n", v.ID, v.String())
	}
	for i, op := range p.Ops {
		label := op.Kind.String()
		if op.Kind == OpCompute {
			label = fmt.Sprintf("%s\\n%s", op.Node.Label(), op.Strategy)
		}
		if op.InPlace >= 0 {
			label += fmt.Sprintf("\\nin-place m%d", p.Values[op.Inputs[op.InPlace]].Matrix)
		}
		style := ""
		if op.CommBytes == 0 && op.Kind != OpLoad && op.Kind != OpVar {
			style = ", style=dashed"
		}
		switch {
		case op.Output >= 0 && len(op.Inputs) > 0:
			for _, in := range op.Inputs {
				fmt.Fprintf(&b, "  v%d -> v%d [label=\"%s (s%d)\"%s];\n", in, op.Output, label, op.Stage, style)
			}
		case op.Output >= 0:
			fmt.Fprintf(&b, "  src%d [shape=box, label=%q];\n  src%d -> v%d;\n", i, label, i, op.Output)
		case op.ScalarName != "":
			fmt.Fprintf(&b, "  sc%d [shape=box, label=\"$%s\"];\n", i, op.ScalarName)
			for _, in := range op.Inputs {
				fmt.Fprintf(&b, "  v%d -> sc%d [label=\"%s (s%d)\"%s];\n", in, i, label, op.Stage, style)
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}
