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
	// OpLoad materializes a loaded input matrix hash-partitioned.
	OpLoad OpKind = iota
	// OpVar binds a session variable instance (materialized by a previous
	// program) into the plan.
	OpVar
	// OpCompute executes a program operator with a chosen strategy.
	OpCompute
	// OpPartition repartitions a value to a Row or Col scheme (shuffle).
	OpPartition
	// OpBroadcast replicates a value to every worker.
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

// IsComm reports whether the operator moves data across workers.
func (k OpKind) IsComm() bool { return k == OpPartition || k == OpBroadcast }

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
	// stageOps groups Ops by stage in plan order (stageOps[s-1] holds stage
	// s's) and valueStage is the stage each value is produced in; both are
	// set by AssignStages.
	stageOps   [][]*Op
	valueStage []int
}

// Value returns the value record for an ID.
func (p *Plan) Value(id ValueID) *Value { return p.Values[id] }

// StageOps returns the operators of stage s (1-based) in plan order. Running
// stages in ascending order, each in this order, is a valid topological order
// of the plan.
func (p *Plan) StageOps(s int) []*Op { return p.stageOps[s-1] }

// ValueStage returns the stage that produces value id.
func (p *Plan) ValueStage(id ValueID) int { return p.valueStage[id] }

// TotalCommBytes returns the estimated communication of the whole plan.
func (p *Plan) TotalCommBytes() int64 {
	var t int64
	for _, op := range p.Ops {
		t += op.CommBytes
	}
	return t
}

// LiveAfter returns, in ascending ID order, the values materialized by stages
// up to and including stage that anything after that stage can still read: an
// input of an operator in a later stage, or a value the session keeps when
// the run ends — every instance of an assigned matrix, and every
// scheme-carrying, untransposed instance of an input variable the program
// does not reassign (the instances a run caches back into the session). It is
// the set a run restored to the end of stage needs in order to finish exactly
// as an uninterrupted one would; every other value is dead by then.
func (p *Plan) LiveAfter(stage int) []ValueID {
	assigned := make(map[string]bool)
	kept := make(map[dep.MatrixID]bool)
	for _, a := range p.Program.Assignments() {
		assigned[a.Name] = true
		kept[a.Ref.Node.ID] = true
	}
	cached := make(map[dep.MatrixID]bool)
	produced := make([]bool, len(p.Values))
	read := make([]bool, len(p.Values))
	for _, op := range p.Ops {
		if (op.Kind == OpLoad || op.Kind == OpVar) && !assigned[op.Node.Name] {
			cached[op.Node.ID] = true
		}
		if op.Stage <= stage {
			if op.Output >= 0 {
				produced[op.Output] = true
			}
			continue
		}
		for _, id := range op.Inputs {
			read[id] = true
		}
	}
	var live []ValueID
	for _, v := range p.Values {
		if !produced[v.ID] {
			continue
		}
		if read[v.ID] || kept[v.Matrix] ||
			(cached[v.Matrix] && !v.Transposed && v.Scheme != dep.SchemeNone) {
			live = append(live, v.ID)
		}
	}
	return live
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
// returns the stage count and keeps the stage index (StageOps, ValueStage) and
// each stage's operator graph (Op.After) on the plan.
func (p *Plan) AssignStages() int {
	p.valueStage = make([]int, len(p.Values))
	p.stageOps = nil
	for _, op := range p.Ops {
		in := 1
		for _, id := range op.Inputs {
			if p.valueStage[id] > in {
				in = p.valueStage[id]
			}
		}
		stage := in
		// An operator that communicates — an extended partition/broadcast
		// operator, a CPMM aggregation, or a hash repartition charged on a
		// compute input edge — delivers its result in the following stage.
		if op.CommBytes > 0 {
			stage = in + 1
		}
		op.Stage = stage
		if op.Output >= 0 {
			p.valueStage[op.Output] = stage
		}
		if stage > len(p.stageOps) {
			p.stageOps = append(p.stageOps, nil)
		}
		p.stageOps[stage-1] = append(p.stageOps[stage-1], op)
	}
	p.Stages = len(p.stageOps)
	p.linkStages()
	return p.Stages
}

// linkStages derives the edges of each stage's operator graph (Op.After),
// once per plan, so a cached plan carries them: an edge from the producer of
// every value to each operator of the same stage that reads it, and a chain
// through the operators that run no kernel, in plan order.
func (p *Plan) linkStages() {
	pos := make([]int, len(p.Values))
	for _, ops := range p.stageOps {
		chain := -1
		for j, op := range ops {
			op.After = nil
			for _, id := range op.Inputs {
				if p.valueStage[id] == op.Stage {
					op.After = append(op.After, pos[id])
				}
			}
			if !op.Kernel() {
				if chain >= 0 {
					op.After = append(op.After, chain)
				}
				chain = j
			}
			if op.Output >= 0 {
				pos[op.Output] = j
			}
		}
	}
}

// licenseInPlace decides, once per plan, which cell-wise operators may write
// their result into the blocks of an input instead of fresh ones. An input
// qualifies when it is the untransposed result of a multiplication of the
// operator's own stage, this read is the only one in the plan, and the
// program assigns its matrix to no variable. Such a value is dead the moment
// the operator has read it: no later stage reads it, so no snapshot holds it
// and the session never sees it; and it is dense, as every product is. A
// retry of the stage runs the multiplication again before the operator. The
// first qualifying input wins.
func (p *Plan) licenseInPlace() {
	reads := make([]int, len(p.Values))
	producer := make([]*Op, len(p.Values))
	for _, op := range p.Ops {
		op.InPlace = -1
		for _, id := range op.Inputs {
			reads[id]++
		}
		if op.Output >= 0 {
			producer[op.Output] = op
		}
	}
	assigned := make(map[dep.MatrixID]bool)
	for _, a := range p.Program.Assignments() {
		assigned[a.Ref.Node.ID] = true
	}
	for _, op := range p.Ops {
		if op.Kind != OpCompute || !op.Node.Kind.IsCellwise() {
			continue
		}
		for i, id := range op.Inputs {
			v, from := p.Values[id], producer[id]
			if from.Kind == OpCompute && from.Node.Kind == expr.KindMul && from.Stage == op.Stage &&
				!v.Transposed && reads[id] == 1 && !assigned[v.Matrix] {
				op.InPlace = i
				break
			}
		}
	}
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
