package expr

import (
	"fmt"

	"dmac/internal/dep"
	"dmac/internal/matrix"
)

// Assignment binds a session variable name to a matrix value produced by the
// program, e.g. `H = ...` at the end of a GNMF iteration.
type Assignment struct {
	Name string
	Ref  Ref
}

// ScalarOut binds a driver-scalar name to an aggregate node (sum / value /
// norm2), e.g. `norm_r2 = (r*r).sum` in conjugate gradient.
type ScalarOut struct {
	Name string
	Node *Node
}

// Program is a matrix program: an ordered sequence of operator nodes plus
// the variable assignments and scalar outputs it produces. One Program
// typically corresponds to one loop body of the paper's examples; session
// variables (KindVar) carry matrices — and their partition schemes — across
// executions, which is what exposes cross-iteration matrix dependencies to
// the planner.
type Program struct {
	nodes   []*Node
	assigns []Assignment
	scalars []ScalarOut
}

// NewProgram returns an empty program.
func NewProgram() *Program { return &Program{} }

// Nodes returns the operator sequence in construction order.
func (p *Program) Nodes() []*Node { return p.nodes }

// Assignments returns the variable assignments of the program.
func (p *Program) Assignments() []Assignment { return p.assigns }

// ScalarOuts returns the scalar outputs of the program.
func (p *Program) ScalarOuts() []ScalarOut { return p.scalars }

// Size counts the program's nodes, assignments and scalar outputs. A
// program only grows, so two reads that agree saw the same program: it is
// how a reader that memoises per program notices one that was extended.
func (p *Program) Size() int { return len(p.nodes) + len(p.assigns) + len(p.scalars) }

func (p *Program) add(n *Node) Ref {
	n.ID = dep.MatrixID(len(p.nodes))
	p.nodes = append(p.nodes, n)
	return Ref{Node: n}
}

// Load introduces an input matrix with the given shape and sparsity
// (sparsity may be pre-computed offline or specified by the user,
// Section 5.1).
func (p *Program) Load(name string, rows, cols int, sparsity float64) Ref {
	checkDims(name, rows, cols)
	return p.add(&Node{Kind: KindLoad, Name: name, Rows: rows, Cols: cols, Sparsity: clampSparsity(sparsity)})
}

// Var references a session variable produced by an earlier program
// execution. Shape and sparsity describe the materialized value.
func (p *Program) Var(name string, rows, cols int, sparsity float64) Ref {
	checkDims(name, rows, cols)
	return p.add(&Node{Kind: KindVar, Name: name, Rows: rows, Cols: cols, Sparsity: clampSparsity(sparsity)})
}

// Mul appends a matrix multiplication a %*% b.
func (p *Program) Mul(a, b Ref) Ref {
	if a.Cols() != b.Rows() {
		panic(fmt.Sprintf("expr: %%*%% shape mismatch %dx%d * %dx%d", a.Rows(), a.Cols(), b.Rows(), b.Cols()))
	}
	// Worst-case estimate: a multiplication output is dense (Section 5.1).
	return p.add(&Node{Kind: KindMul, Inputs: []Ref{a, b}, Rows: a.Rows(), Cols: b.Cols(), Sparsity: 1})
}

func (p *Program) cell(op matrix.BinOp, a, b Ref) Ref {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		panic(fmt.Sprintf("expr: %s shape mismatch %dx%d vs %dx%d", op, a.Rows(), a.Cols(), b.Rows(), b.Cols()))
	}
	// Worst-case sparsity of a non-multiplication binary operator is the
	// saturating sum of the input sparsities (Section 5.1).
	s := clampSparsity(a.Node.Sparsity + b.Node.Sparsity)
	return p.add(&Node{Kind: KindCell, BinOp: op, Inputs: []Ref{a, b}, Rows: a.Rows(), Cols: a.Cols(), Sparsity: s})
}

// Add appends the cell-wise sum a + b.
func (p *Program) Add(a, b Ref) Ref { return p.cell(matrix.OpAdd, a, b) }

// Sub appends the cell-wise difference a - b.
func (p *Program) Sub(a, b Ref) Ref { return p.cell(matrix.OpSub, a, b) }

// CellMul appends the cell-wise product a * b.
func (p *Program) CellMul(a, b Ref) Ref { return p.cell(matrix.OpCellMul, a, b) }

// CellDiv appends the cell-wise quotient a / b.
func (p *Program) CellDiv(a, b Ref) Ref { return p.cell(matrix.OpCellDiv, a, b) }

// Scalar appends an operation between matrix a and constant c.
func (p *Program) Scalar(op matrix.ScalarOp, a Ref, c float64) Ref {
	s := a.Node.Sparsity
	if !op.SparsityPreserving(c) {
		s = 1
	}
	return p.add(&Node{Kind: KindScalar, ScalarOp: op, Const: c, Inputs: []Ref{a}, Rows: a.Rows(), Cols: a.Cols(), Sparsity: s})
}

// ScalarParam appends an operation between matrix a and a named dynamic
// parameter whose value is supplied at execution time (e.g. alpha, beta in
// conjugate gradient). The worst-case estimate conservatively assumes the
// parameter value does not preserve sparsity unless the operator does for
// every constant.
func (p *Program) ScalarParam(op matrix.ScalarOp, a Ref, param string) Ref {
	if param == "" {
		panic("expr: empty parameter name")
	}
	s := a.Node.Sparsity
	if op != matrix.ScalarMul && op != matrix.ScalarDiv {
		s = 1
	}
	return p.add(&Node{Kind: KindScalar, ScalarOp: op, Param: param, Inputs: []Ref{a}, Rows: a.Rows(), Cols: a.Cols(), Sparsity: s})
}

// Func appends a named element-wise function application, e.g. sigmoid for
// logistic regression. Sparse results stay sparse when the function maps
// zero to zero.
func (p *Program) Func(f matrix.UFunc, a Ref) Ref {
	if !f.Valid() {
		panic(fmt.Sprintf("expr: invalid UFunc %d", f))
	}
	s := a.Node.Sparsity
	if !f.SparsityPreserving() {
		s = 1
	}
	return p.add(&Node{Kind: KindUFunc, UFunc: f, Inputs: []Ref{a}, Rows: a.Rows(), Cols: a.Cols(), Sparsity: s})
}

// Fused appends a tree of cell-wise operators over same-shaped inputs as one
// operator. The worst-case sparsity follows the tree link by link with the
// rules of the single operators.
func (p *Program) Fused(t *matrix.CellTree, inputs ...Ref) Ref {
	if err := t.Validate(); err != nil {
		panic(fmt.Sprintf("expr: %v", err))
	}
	if len(inputs) != t.Inputs {
		panic(fmt.Sprintf("expr: cell tree over %d inputs given %d", t.Inputs, len(inputs)))
	}
	for _, in := range inputs[1:] {
		if in.Rows() != inputs[0].Rows() || in.Cols() != inputs[0].Cols() {
			panic(fmt.Sprintf("expr: fused shape mismatch %dx%d vs %dx%d", inputs[0].Rows(), inputs[0].Cols(), in.Rows(), in.Cols()))
		}
	}
	sp := make([]float64, len(t.Links))
	arg := func(a matrix.CellArg) float64 {
		if a.Link {
			return sp[a.Idx]
		}
		return inputs[a.Idx].Node.Sparsity
	}
	for j, l := range t.Links {
		switch {
		case l.Kind == matrix.LinkBin:
			sp[j] = clampSparsity(arg(l.A) + arg(l.B))
		case l.ZeroPreserving():
			sp[j] = arg(l.A)
		default:
			sp[j] = 1
		}
	}
	return p.add(&Node{Kind: KindFused, Tree: t, Inputs: inputs, Rows: inputs[0].Rows(), Cols: inputs[0].Cols(), Sparsity: sp[len(sp)-1]})
}

// AppendCopy appends a copy of n, a matrix-valued node of any program — its
// operator, payload, shape and sparsity estimate as they stand — reading
// inputs in place of n's own. It is how a pass that re-emits a program keeps
// the nodes it does not touch; Validate checks the result like any other.
func (p *Program) AppendCopy(n *Node, inputs ...Ref) Ref {
	c := *n
	c.Inputs = inputs
	return p.add(&c)
}

// Sum appends a driver-side reduction of a to the sum of its cells and binds
// it to the named scalar output.
func (p *Program) Sum(name string, a Ref) *Node {
	return p.aggregate(KindSum, name, a)
}

// Value appends a driver-side extraction of the single cell of a 1x1 matrix.
func (p *Program) Value(name string, a Ref) *Node {
	if a.Rows() != 1 || a.Cols() != 1 {
		panic(fmt.Sprintf("expr: value() requires a 1x1 matrix, got %dx%d", a.Rows(), a.Cols()))
	}
	return p.aggregate(KindValue, name, a)
}

// Norm2 appends a driver-side reduction of a to its Frobenius norm.
func (p *Program) Norm2(name string, a Ref) *Node {
	return p.aggregate(KindNorm2, name, a)
}

func (p *Program) aggregate(k Kind, name string, a Ref) *Node {
	if name == "" {
		panic("expr: empty scalar output name")
	}
	ref := p.add(&Node{Kind: k, Inputs: []Ref{a}, Rows: 1, Cols: 1, Sparsity: 1})
	p.scalars = append(p.scalars, ScalarOut{Name: name, Node: ref.Node})
	return ref.Node
}

// Assign binds a variable name to a program value; the engine materializes
// it into the session after execution.
func (p *Program) Assign(name string, r Ref) {
	if name == "" {
		panic("expr: empty assignment name")
	}
	p.assigns = append(p.assigns, Assignment{Name: name, Ref: r})
}

// Validate re-checks the structural invariants of the program: acyclic
// construction order, operand shapes, and input arity. It returns the first
// violation found.
func (p *Program) Validate() error {
	seen := make(map[dep.MatrixID]bool, len(p.nodes))
	for i, n := range p.nodes {
		if int(n.ID) != i {
			return fmt.Errorf("expr: node %d has ID %d", i, n.ID)
		}
		if n.Rows <= 0 || n.Cols <= 0 {
			return fmt.Errorf("expr: node %d has non-positive shape %dx%d", i, n.Rows, n.Cols)
		}
		for _, in := range n.Inputs {
			if in.Node == nil {
				return fmt.Errorf("expr: node %d has nil input", i)
			}
			if !seen[in.Node.ID] {
				return fmt.Errorf("expr: node %d reads m%d before it is defined", i, in.Node.ID)
			}
		}
		switch n.Kind {
		case KindLoad, KindVar:
			if len(n.Inputs) != 0 {
				return fmt.Errorf("expr: leaf node %d has inputs", i)
			}
			if n.Name == "" {
				return fmt.Errorf("expr: leaf node %d has no name", i)
			}
		case KindMul:
			if len(n.Inputs) != 2 {
				return fmt.Errorf("expr: node %d: %%*%% needs 2 inputs", i)
			}
			if n.Inputs[0].Cols() != n.Inputs[1].Rows() {
				return fmt.Errorf("expr: node %d: inner dimensions %d vs %d", i, n.Inputs[0].Cols(), n.Inputs[1].Rows())
			}
		case KindCell:
			if len(n.Inputs) != 2 {
				return fmt.Errorf("expr: node %d: cell op needs 2 inputs", i)
			}
			a, b := n.Inputs[0], n.Inputs[1]
			if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
				return fmt.Errorf("expr: node %d: cell op shapes %dx%d vs %dx%d", i, a.Rows(), a.Cols(), b.Rows(), b.Cols())
			}
		case KindFused:
			if n.Tree == nil {
				return fmt.Errorf("expr: node %d: fused node has no tree", i)
			}
			if err := n.Tree.Validate(); err != nil {
				return fmt.Errorf("expr: node %d: %w", i, err)
			}
			if len(n.Inputs) != n.Tree.Inputs {
				return fmt.Errorf("expr: node %d: tree over %d inputs has %d", i, n.Tree.Inputs, len(n.Inputs))
			}
			for _, in := range n.Inputs[1:] {
				if a := n.Inputs[0]; a.Rows() != in.Rows() || a.Cols() != in.Cols() {
					return fmt.Errorf("expr: node %d: fused shapes %dx%d vs %dx%d", i, a.Rows(), a.Cols(), in.Rows(), in.Cols())
				}
			}
		case KindScalar, KindUFunc, KindSum, KindValue, KindNorm2:
			if len(n.Inputs) != 1 {
				return fmt.Errorf("expr: node %d: unary op needs 1 input", i)
			}
			if n.Kind == KindUFunc && !n.UFunc.Valid() {
				return fmt.Errorf("expr: node %d: invalid UFunc %d", i, n.UFunc)
			}
		default:
			return fmt.Errorf("expr: node %d: unknown kind %v", i, n.Kind)
		}
		seen[n.ID] = true
	}
	names := make(map[string]bool)
	for _, a := range p.assigns {
		if a.Ref.Node == nil || !seen[a.Ref.Node.ID] {
			return fmt.Errorf("expr: assignment %q references undefined value", a.Name)
		}
		if names[a.Name] {
			return fmt.Errorf("expr: duplicate assignment %q", a.Name)
		}
		names[a.Name] = true
	}
	return nil
}

// OperatorOrder returns the execution order of the program's operator nodes
// as indices into Nodes(). Leaves come first; among simultaneously ready
// operators, multiplications are scheduled ahead of other operators — the
// decomposition rule of Section 4.2.3 ("we put the operators with
// multiplication ahead" so Pull-Up Broadcast has more opportunities).
// The order is deterministic: ties break on construction order.
func (p *Program) OperatorOrder() []int {
	n := len(p.nodes)
	remaining := make([]int, n) // unscheduled input count
	dependents := make([][]int, n)
	for i, node := range p.nodes {
		// Count distinct producer nodes (a node may read the same input
		// twice, e.g. r * r).
		producers := map[dep.MatrixID]bool{}
		for _, in := range node.Inputs {
			producers[in.Node.ID] = true
		}
		remaining[i] = len(producers)
		for id := range producers {
			dependents[id] = append(dependents[id], i)
		}
	}
	order := make([]int, 0, n)
	scheduled := make([]bool, n)
	for len(order) < n {
		pick := -1
		pickMul := false
		for i := 0; i < n; i++ {
			if scheduled[i] || remaining[i] != 0 {
				continue
			}
			isMul := p.nodes[i].Kind == KindMul
			// Prefer the first ready multiplication; otherwise the first
			// ready node.
			if pick == -1 || (isMul && !pickMul) {
				pick, pickMul = i, isMul
				if isMul {
					break
				}
			}
		}
		if pick == -1 {
			// Unreachable for validated programs; guard against cycles.
			panic("expr: cyclic program")
		}
		scheduled[pick] = true
		order = append(order, pick)
		for _, d := range dependents[pick] {
			remaining[d]--
		}
	}
	return order
}

func checkDims(name string, rows, cols int) {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("expr: %s: non-positive dimensions %dx%d", name, rows, cols))
	}
}

func clampSparsity(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}
