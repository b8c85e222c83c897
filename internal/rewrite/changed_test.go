package rewrite

import (
	"math"
	"math/rand"
	"testing"

	"dmac/internal/core"
	"dmac/internal/expr"
)

// TestChangedMatchesFormattedComparison pins sameFormat — how Rewrite decides
// Result.Changed — to the comparison of the two FormatProgram renderings it
// replaces, on every program: random programs over many seeds (FuzzRewrite's
// corpus among them) and every intermediate of their rewrite, each program
// against its predecessor, and copies nudged below the rendering's
// precision.
func TestChangedMatchesFormattedComparison(t *testing.T) {
	check := func(label string, a, b *expr.Program) {
		t.Helper()
		if got, want := sameFormat(a, b), FormatProgram(a) == FormatProgram(b); got != want {
			t.Fatalf("%s: sameFormat = %v, rendered comparison %v\n%s\nvs\n%s", label, got, want, FormatProgram(a), FormatProgram(b))
		}
	}
	rewriters := []*Rewriter{New(), NewWithConfig(Config{DisableChainReorder: true, DisableSparsity: true}),
		NewWithConfig(Config{DisableTransposePushdown: true, DisableChainReorder: true, DisableFolding: true, DisableSparsity: true})}
	var prev *expr.Program
	for seed := int64(0); seed < 400; seed++ {
		src, _ := core.RandomProgram(rand.New(rand.NewSource(seed)))
		check("self", src, src)
		if prev != nil {
			check("previous seed", src, prev)
		}
		prev = src
		for _, rw := range rewriters {
			cur := src
			for pass := 0; pass < 4; pass++ {
				next, err := rw.rewriteOnce(cur)
				if err != nil {
					t.Fatal(err)
				}
				check("pass", cur, next.Program)
				if next.Changed != (FormatProgram(cur) != FormatProgram(next.Program)) {
					t.Fatalf("seed %d pass %d: Changed = %v", seed, pass, next.Changed)
				}
				cur = next.Program
			}
			res, err := rw.Rewrite(src)
			if err != nil {
				t.Fatal(err)
			}
			if res.Changed != (FormatProgram(src) != FormatProgram(res.Program)) {
				t.Fatalf("seed %d: Rewrite Changed = %v", seed, res.Changed)
			}
			again, err := rw.Rewrite(src)
			if err != nil {
				t.Fatal(err)
			}
			check("two rewrites", res.Program, again.Program)
			// Nudge one value of the second copy: a last-bit change prints
			// alike, a larger one does not.
			nodes := again.Program.Nodes()
			n := nodes[seed%int64(len(nodes))]
			n.Sparsity = math.Nextafter(n.Sparsity, 0)
			check("sparsity nudged in its last bit", res.Program, again.Program)
			n.Sparsity *= 0.9
			check("sparsity nudged", res.Program, again.Program)
			for _, m := range nodes {
				if m.Kind == expr.KindScalar && m.Param == "" {
					m.Const = math.Nextafter(m.Const, math.Inf(1))
					check("constant nudged", res.Program, again.Program)
					break
				}
			}
		}
	}
}
