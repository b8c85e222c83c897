package core

import (
	"fmt"
	"math/rand"

	"dmac/internal/dep"
	"dmac/internal/expr"
	"dmac/internal/matrix"
)

// RandomProgram builds a random but valid matrix program over a small pool
// of dimension sizes (so operand shapes frequently match) and returns it,
// together with the cached schemes its session variables should start with.
// Used by the planner fuzz tests and the engine's differential property
// tests: the same rng state always yields the same program.
func RandomProgram(rng *rand.Rand) (*expr.Program, map[string][]dep.Scheme) {
	dims := []int{3, 4, 6, 8}
	dim := func() int { return dims[rng.Intn(len(dims))] }
	p := expr.NewProgram()
	vars := make(map[string][]dep.Scheme)
	var pool []expr.Ref

	nLeaves := 2 + rng.Intn(3)
	for i := 0; i < nLeaves; i++ {
		name := fmt.Sprintf("M%d", i)
		r := p.Var(name, dim(), dim(), 0.1+0.9*rng.Float64())
		pool = append(pool, r)
		switch rng.Intn(4) {
		case 0:
			vars[name] = []dep.Scheme{dep.Row}
		case 1:
			vars[name] = []dep.Scheme{dep.Col}
		case 2:
			vars[name] = []dep.Scheme{dep.Row, dep.Broadcast}
			// case 3: unbound -> hash-partitioned.
		}
	}

	pick := func() expr.Ref {
		r := pool[rng.Intn(len(pool))]
		if rng.Intn(3) == 0 {
			r = r.T()
		}
		return r
	}

	// link applies one random cell-wise operator to a: binary against a
	// same-shaped value when the pool has one, otherwise (or by choice) a
	// scalar operator or an element-wise function defined everywhere.
	link := func(a expr.Ref) expr.Ref {
		if rng.Intn(2) == 0 {
			for try := 0; try < 20; try++ {
				if b := pick(); a.Rows() == b.Rows() && a.Cols() == b.Cols() {
					return []func(a, b expr.Ref) expr.Ref{p.Add, p.Sub, p.CellMul}[rng.Intn(3)](a, b)
				}
			}
		}
		if rng.Intn(2) == 0 {
			return p.Func([]matrix.UFunc{matrix.FuncSigmoid, matrix.FuncAbs, matrix.FuncSign}[rng.Intn(3)], a)
		}
		return p.Scalar([]matrix.ScalarOp{matrix.ScalarMul, matrix.ScalarAdd, matrix.ScalarRSub}[rng.Intn(3)], a, rng.NormFloat64())
	}

	nOps := 4 + rng.Intn(10)
	for i := 0; i < nOps; i++ {
		switch rng.Intn(6) {
		case 0, 1: // multiplication: find a compatible pair
			var a, b expr.Ref
			found := false
			for try := 0; try < 20 && !found; try++ {
				a, b = pick(), pick()
				found = a.Cols() == b.Rows()
			}
			if found {
				pool = append(pool, p.Mul(a, b))
			}
		case 2: // cell-wise (avoid division: random zeros make Inf)
			var a, b expr.Ref
			found := false
			for try := 0; try < 20 && !found; try++ {
				a, b = pick(), pick()
				found = a.Rows() == b.Rows() && a.Cols() == b.Cols()
			}
			if found {
				switch rng.Intn(3) {
				case 0:
					pool = append(pool, p.Add(a, b))
				case 1:
					pool = append(pool, p.Sub(a, b))
				default:
					pool = append(pool, p.CellMul(a, b))
				}
			}
		case 3: // scalar op
			ops := []matrix.ScalarOp{matrix.ScalarMul, matrix.ScalarAdd, matrix.ScalarSub, matrix.ScalarRSub}
			pool = append(pool, p.Scalar(ops[rng.Intn(len(ops))], pick(), rng.NormFloat64()))
		case 4: // aggregate
			p.Sum(fmt.Sprintf("s%d", i), pick())
		case 5: // a tree of cell-wise operators, what the rewriter fuses
			// Interior values mostly have this one reader; one in four joins
			// the pool, where a second reader keeps it out of a fused tree.
			v := link(pick())
			for n := 1 + rng.Intn(4); n > 0; n-- {
				if rng.Intn(4) == 0 {
					pool = append(pool, v)
				}
				if rng.Intn(3) == 0 { // a second branch under the next link
					if w := link(pick()); w.Rows() == v.Rows() && w.Cols() == v.Cols() {
						v = p.CellMul(v, w)
						continue
					}
				}
				v = link(v)
			}
			pool = append(pool, v)
		}
	}
	// Assign the last few values so the program has outputs.
	for i := 0; i < 2 && i < len(pool); i++ {
		p.Assign(fmt.Sprintf("out%d", i), pool[len(pool)-1-i])
	}
	return p, vars
}
