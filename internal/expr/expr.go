// Package expr represents matrix programs as sequences of operators, the
// form DMac's plan generator consumes (Section 4). A Program is built with an
// R-like fluent API mirroring the paper's Scala DSL:
//
//	p := expr.NewProgram()
//	V := p.Load("V", rows, cols, sparsity)
//	W := p.Var("W", d, k, 1)
//	H := p.Var("H", k, w, 1)
//	// H = H * (Wᵀ V) / (Wᵀ W H)
//	newH := p.CellMul(H, p.CellDiv(p.Mul(W.T(), V), p.Mul(p.Mul(W.T(), W), H)))
//	p.Assign("H", newH)
//
// Reading a transpose is a property of the reference (Ref.T), not an
// operator: this is what lets the dependency analyzer recognize Transpose /
// Extract-Transpose dependencies and satisfy them without communication.
//
// Builder methods panic on shape mismatches (they indicate a malformed
// program, analogous to a compile error in the paper's DSL); Validate
// re-checks a finished program and returns errors for dynamic use.
package expr

import (
	"fmt"

	"dmac/internal/dep"
	"dmac/internal/matrix"
)

// Kind discriminates the operator kinds of a program node.
type Kind int

// Node kinds. Leaf kinds (Load, Var) introduce matrices; the remaining kinds
// are the binary/unary operators of Section 3.1 plus the driver-side
// aggregations used by the appendix programs (sum, value, norm).
const (
	// KindLoad introduces an input matrix loaded from storage.
	KindLoad Kind = iota
	// KindVar references a session variable materialized by a previous
	// program execution (e.g. W and H carried across GNMF iterations).
	KindVar
	// KindMul is matrix multiplication (%*%).
	KindMul
	// KindCell is a cell-wise binary operator (+, -, *, /).
	KindCell
	// KindScalar is an operator between a matrix and a scalar constant or
	// named parameter.
	KindScalar
	// KindUFunc applies a named element-wise function (sigmoid, exp, ...).
	KindUFunc
	// KindSum reduces a matrix to the sum of its cells (driver scalar).
	KindSum
	// KindValue extracts the single cell of a 1x1 matrix (driver scalar).
	KindValue
	// KindNorm2 reduces a matrix to its Frobenius (2-)norm (driver scalar).
	KindNorm2
	// KindFused is a tree of cell-wise, scalar and element-wise function
	// operators over k same-shaped inputs, evaluated as one operator: what
	// the rewriter makes of KindCell/KindScalar/KindUFunc nodes whose
	// intermediate values nothing else reads.
	KindFused
)

// String names the node kind.
func (k Kind) String() string {
	switch k {
	case KindLoad:
		return "load"
	case KindVar:
		return "var"
	case KindMul:
		return "%*%"
	case KindCell:
		return "cell"
	case KindScalar:
		return "scalar"
	case KindUFunc:
		return "ufunc"
	case KindSum:
		return "sum"
	case KindValue:
		return "value"
	case KindNorm2:
		return "norm2"
	case KindFused:
		return "fused"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// IsCellwise reports whether the kind computes each cell of its result from
// the same cell of its inputs: the operators a CellTree is made of.
func (k Kind) IsCellwise() bool {
	return k == KindCell || k == KindScalar || k == KindUFunc || k == KindFused
}

// IsAggregate reports whether the kind produces a driver-side scalar rather
// than a distributed matrix.
func (k Kind) IsAggregate() bool {
	return k == KindSum || k == KindValue || k == KindNorm2
}

// Node is one operator (or leaf) of a program. Nodes are created only
// through Program builder methods, which assign IDs in construction order.
type Node struct {
	// ID is the SSA value produced by this node.
	ID dep.MatrixID
	// Kind discriminates the operator.
	Kind Kind
	// Name is the variable name for KindLoad/KindVar leaves, empty otherwise.
	Name string
	// BinOp is the cell-wise operator for KindCell.
	BinOp matrix.BinOp
	// ScalarOp is the operator for KindScalar.
	ScalarOp matrix.ScalarOp
	// UFunc is the element-wise function for KindUFunc.
	UFunc matrix.UFunc
	// Const is the scalar constant for KindScalar when Param is empty.
	Const float64
	// Param names a dynamic scalar parameter for KindScalar (e.g. alpha in
	// conjugate gradient); the value is supplied at execution time.
	Param string
	// Tree is the operator tree of a KindFused node over Inputs; its named
	// parameters are still unbound.
	Tree *matrix.CellTree
	// Inputs are the operand references (one for KindScalar and aggregates,
	// two for KindMul/KindCell, one per tree input for KindFused, none for
	// leaves).
	Inputs []Ref
	// Rows, Cols are the inferred result dimensions.
	Rows, Cols int
	// Sparsity is the worst-case sparsity estimate of the result
	// (Section 5.1).
	Sparsity float64
}

// Label returns a short human-readable description for plan printing.
func (n *Node) Label() string {
	switch n.Kind {
	case KindLoad:
		return fmt.Sprintf("load(%s)", n.Name)
	case KindVar:
		return fmt.Sprintf("var(%s)", n.Name)
	case KindMul:
		return fmt.Sprintf("%s %%*%% %s", n.Inputs[0], n.Inputs[1])
	case KindCell:
		return fmt.Sprintf("%s %s %s", n.Inputs[0], n.BinOp, n.Inputs[1])
	case KindScalar:
		c := n.Param
		if c == "" {
			c = fmt.Sprintf("%g", n.Const)
		}
		return fmt.Sprintf("%s %s(%s)", n.Inputs[0], n.ScalarOp, c)
	case KindUFunc:
		return fmt.Sprintf("%s(%s)", n.UFunc, n.Inputs[0])
	case KindFused:
		return n.Tree.Format(func(i int) string { return n.Inputs[i].String() })
	case KindSum:
		return fmt.Sprintf("sum(%s)", n.Inputs[0])
	case KindValue:
		return fmt.Sprintf("value(%s)", n.Inputs[0])
	case KindNorm2:
		return fmt.Sprintf("norm2(%s)", n.Inputs[0])
	default:
		return n.Kind.String()
	}
}

// Cells returns the node's computation as a cell-wise tree over Inputs: the
// tree of a KindFused node, a tree of one link for the other cell-wise kinds,
// nil for every other kind.
func (n *Node) Cells() *matrix.CellTree {
	link := matrix.CellLink{A: matrix.CellInput(0)}
	switch n.Kind {
	case KindFused:
		return n.Tree
	case KindCell:
		link.Kind, link.BinOp, link.B = matrix.LinkBin, n.BinOp, matrix.CellInput(1)
	case KindScalar:
		link.Kind, link.ScalarOp, link.Const, link.Param = matrix.LinkScalar, n.ScalarOp, n.Const, n.Param
	case KindUFunc:
		link.Kind, link.UFunc = matrix.LinkFunc, n.UFunc
	default:
		return nil
	}
	return &matrix.CellTree{Inputs: len(n.Inputs), Links: []matrix.CellLink{link}}
}

// Ref is a reference to a node's result, possibly transposed. Transposition
// composes: r.T().T() == r.
type Ref struct {
	Node       *Node
	Transposed bool
}

// T returns the transposed reference (the paper's A.t / Aᵀ).
func (r Ref) T() Ref { return Ref{Node: r.Node, Transposed: !r.Transposed} }

// Rows returns the row count of the referenced (possibly transposed) value.
func (r Ref) Rows() int {
	if r.Transposed {
		return r.Node.Cols
	}
	return r.Node.Rows
}

// Cols returns the column count of the referenced (possibly transposed)
// value.
func (r Ref) Cols() int {
	if r.Transposed {
		return r.Node.Rows
	}
	return r.Node.Cols
}

// String formats the reference as mID or mIDᵀ.
func (r Ref) String() string {
	if r.Node == nil {
		return "m?"
	}
	if r.Transposed {
		return fmt.Sprintf("m%dᵀ", r.Node.ID)
	}
	return fmt.Sprintf("m%d", r.Node.ID)
}
