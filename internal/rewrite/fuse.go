package rewrite

import (
	"fmt"

	"dmac/internal/cost"
	"dmac/internal/dep"
	"dmac/internal/expr"
	"dmac/internal/matrix"
)

// fuseCellwise is the cell-wise fusion rule: every maximal tree of cell-wise
// operators (binary, scalar, element-wise function, or a tree fused earlier)
// whose interior values have exactly one read — an untransposed read by
// another operator of the tree — becomes one KindFused node over the tree's
// leaves, and the interiors are never materialized.
//
// One read exactly, because a second reader (another operator, an assignment)
// needs the value materialized anyway and fusing would compute it twice. An
// interior read transposed is left alone: the tree is evaluated block by
// block over co-partitioned inputs, and block (i, j) of a transposed value is
// not block (i, j) of the others.
//
// Under ProgramCost a fused node costs the FLOPs of its links plus the bytes
// of its result, so the rule takes exactly the interiors' bytes off the
// program — the BytesSaved of its decision — and can never raise the cost.
// The fused node keeps the root's sparsity estimate, so nothing downstream is
// sized differently. src must hold live nodes only, as every program
// rewriteOnce emits does.
func fuseCellwise(src *expr.Program) (out *expr.Program, decisions []Decision, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, decisions, err = nil, nil, fmt.Errorf("rewrite: internal error: %v", r)
		}
	}()
	reads := make(map[dep.MatrixID]int)
	for _, n := range src.Nodes() {
		for _, in := range n.Inputs {
			reads[in.Node.ID]++
		}
	}
	for _, a := range src.Assignments() {
		reads[a.Ref.Node.ID]++
	}
	interior := make(map[dep.MatrixID]bool)
	for _, n := range src.Nodes() {
		if !n.Kind.IsCellwise() {
			continue
		}
		for _, in := range n.Inputs {
			if in.Node.Kind.IsCellwise() && !in.Transposed && reads[in.Node.ID] == 1 {
				interior[in.Node.ID] = true
			}
		}
	}

	out = expr.NewProgram()
	mapped := make(map[dep.MatrixID]expr.Ref)
	mapRef := func(r expr.Ref) expr.Ref {
		m := mapped[r.Node.ID]
		if r.Transposed {
			m = m.T()
		}
		return m
	}
	scalarName := make(map[dep.MatrixID]string)
	for _, so := range src.ScalarOuts() {
		scalarName[so.Node.ID] = so.Name
	}
	for _, n := range src.Nodes() {
		if interior[n.ID] {
			continue // inlined into the tree of its reader
		}
		var (
			tree    matrix.CellTree
			leaves  []expr.Ref
			inlined int   // interior nodes spliced into tree
			saved   int64 // their bytes
		)
		// splice appends the links of cell-wise node c, its interior operands'
		// first, and returns the operand naming c's value.
		var splice func(c *expr.Node) matrix.CellArg
		splice = func(c *expr.Node) matrix.CellArg {
			args := make([]matrix.CellArg, len(c.Inputs))
			for i, in := range c.Inputs {
				if interior[in.Node.ID] {
					inlined++
					saved += cost.SizeBytes(in.Node.Rows, in.Node.Cols, in.Node.Sparsity)
					args[i] = splice(in.Node)
				} else {
					leaves = append(leaves, mapRef(in))
					args[i] = matrix.CellInput(len(leaves) - 1)
				}
			}
			base := len(tree.Links)
			rebase := func(a matrix.CellArg) matrix.CellArg {
				if a.Link {
					return matrix.CellValue(base + a.Idx)
				}
				return args[a.Idx]
			}
			for _, l := range c.Cells().Links {
				l.A = rebase(l.A)
				if l.Kind == matrix.LinkBin {
					l.B = rebase(l.B)
				}
				tree.Links = append(tree.Links, l)
			}
			return matrix.CellValue(len(tree.Links) - 1)
		}
		switch {
		case n.Kind.IsAggregate():
			mapped[n.ID] = appendAggregate(out, n.Kind, scalarName[n.ID], mapRef(n.Inputs[0]))
			continue
		case n.Kind.IsCellwise():
			splice(n)
		}
		if inlined == 0 {
			ins := make([]expr.Ref, len(n.Inputs))
			for i, in := range n.Inputs {
				ins[i] = mapRef(in)
			}
			mapped[n.ID] = out.AppendCopy(n, ins...)
			continue
		}
		tree.Inputs = len(leaves)
		fused := out.Fused(&tree, leaves...)
		fused.Node.Sparsity = n.Sparsity
		mapped[n.ID] = fused
		decisions = append(decisions, Decision{
			Rule:       RuleFuseCellwise,
			Node:       fmt.Sprintf("m%d", n.ID),
			Detail:     fmt.Sprintf("%d operators as one: %s", len(tree.Links), fused.Node.Label()),
			BytesSaved: saved,
		})
	}
	for _, a := range src.Assignments() {
		out.Assign(a.Name, mapRef(a.Ref))
	}
	if verr := out.Validate(); verr != nil {
		return nil, nil, fmt.Errorf("rewrite: fusion produced invalid program: %w", verr)
	}
	return out, decisions, nil
}
