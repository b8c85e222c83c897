package rewrite

import (
	"fmt"
	"math"
	"strings"

	"dmac/internal/expr"
)

// sameFormat reports whether FormatProgram would render a and b alike,
// without rendering them: line by line, a line whose fields are equal bit
// for bit is equal, and only a line whose fields differ is formatted, to
// find out whether they print alike (a sparsity equal to four digits, say).
// Node lines compare field by field; a name is compared as one atom, as
// FormatProgram prints it.
func sameFormat(a, b *expr.Program) bool {
	an, bn := a.Nodes(), b.Nodes()
	aa, ba := a.Assignments(), b.Assignments()
	as, bs := a.ScalarOuts(), b.ScalarOuts()
	if len(an) != len(bn) || len(aa) != len(ba) || len(as) != len(bs) {
		return false
	}
	for i, x := range an {
		if !sameNodeLine(x, bn[i]) {
			return false
		}
	}
	for i, x := range aa {
		y := ba[i]
		if x.Name != y.Name || x.Ref.Node.ID != y.Ref.Node.ID || x.Ref.Transposed != y.Ref.Transposed {
			return false
		}
	}
	for i, x := range as {
		if x.Name != bs[i].Name || x.Node.ID != bs[i].Node.ID {
			return false
		}
	}
	return true
}

// sameNodeLine reports whether two nodes render the same FormatProgram line.
func sameNodeLine(x, y *expr.Node) bool {
	if x.ID != y.ID || x.Rows != y.Rows || x.Cols != y.Cols {
		return false
	}
	if math.Float64bits(x.Sparsity) != math.Float64bits(y.Sparsity) &&
		fmt.Sprintf("%.4g", x.Sparsity) != fmt.Sprintf("%.4g", y.Sparsity) {
		return false
	}
	same := x.Kind == y.Kind && x.Name == y.Name && x.BinOp == y.BinOp && x.ScalarOp == y.ScalarOp &&
		x.UFunc == y.UFunc && math.Float64bits(x.Const) == math.Float64bits(y.Const) && x.Param == y.Param &&
		x.Tree == y.Tree && len(x.Inputs) == len(y.Inputs)
	for i := 0; same && i < len(x.Inputs); i++ {
		same = x.Inputs[i].Node.ID == y.Inputs[i].Node.ID && x.Inputs[i].Transposed == y.Inputs[i].Transposed
	}
	return same || x.Label() == y.Label()
}

// FormatDecisions renders applied rewrite decisions one per line for golden
// files and the dmacplan explain path.
func FormatDecisions(ds []Decision) string {
	if len(ds) == 0 {
		return "(none)\n"
	}
	var b strings.Builder
	for _, d := range ds {
		fmt.Fprintf(&b, "%-18s %-5s %s", d.Rule, d.Node, d.Detail)
		if d.FLOPsSaved != 0 {
			fmt.Fprintf(&b, " [flops %+.4g]", d.FLOPsSaved)
		}
		if d.BytesSaved != 0 {
			fmt.Fprintf(&b, " [bytes %+d]", d.BytesSaved)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
