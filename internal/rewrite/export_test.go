package rewrite

import (
	"fmt"
	"strings"

	"dmac/internal/expr"
)

// FormatProgram renders a program one value per line — ID, operator label,
// shape and sparsity estimate, followed by its assignments and scalar
// outputs. The rendering is canonical (construction order, fixed number
// formatting), so it doubles as the golden-file format for the rewriter's
// regression tests: a rule change shows up as a reviewable diff.
func FormatProgram(p *expr.Program) string {
	var b strings.Builder
	for _, n := range p.Nodes() {
		fmt.Fprintf(&b, "m%-3d = %-36s [%dx%d s=%.4g]\n", n.ID, n.Label(), n.Rows, n.Cols, n.Sparsity)
	}
	for _, a := range p.Assignments() {
		fmt.Fprintf(&b, "assign %s = %s\n", a.Name, a.Ref)
	}
	for _, so := range p.ScalarOuts() {
		fmt.Fprintf(&b, "scalar %s = m%d\n", so.Name, so.Node.ID)
	}
	return b.String()
}
