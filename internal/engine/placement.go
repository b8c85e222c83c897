package engine

import (
	"slices"

	"dmac/internal/dist"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/rewrite"
)

// Placement is where a session left the grids Bind gave it: for each bound
// variable that still holds its bound grid, the partitions and broadcast
// replicas of it that share that grid's blocks, with their reach and
// orientation. A later session that binds the same grids on the same engine
// restores it with Place, so its first run plans and moves as a later
// iteration of the same session would. This is the paper's reuse of a
// matrix's partition scheme, carried across jobs that bind one immutable
// input.
//
// A placement holds copies of the session's instances, never the instances
// themselves: Grid realizes a lazy transpose view in place, swapping another
// grid into the instance. It records only untransposed instances whose grid
// is the bound grid itself, which the caller owns and no block pool does, so
// nothing a placement reaches is reused by a later run. It also records the
// workers killed when it was taken: once another worker is lost, the blocks
// placed on it are gone, and Place restores no instance.
//
// A placement also carries the session's program forms (what the engine
// plans and runs for each program it was handed, and its signature), so a
// later session running the same Program is not rewritten and signed again.
// The forms hold the programs they were made for: a placement keeps them
// alive as long as its holder does. They return only to a session under the
// same rewriter (SetRewriter), which they depend on.
type Placement struct {
	dead     []int
	placed   []placedInstance
	forms    []placedForm
	rewriter *rewrite.Rewriter
}

// placedForm is one program's form as the session left it.
type placedForm struct {
	prog *expr.Program
	form *programForm
}

// placedInstance is one placed instance: its variable, the grid the
// variable was bound to, and a copy of the instance.
type placedInstance struct {
	name  string
	bound *matrix.Grid
	inst  dist.DistMatrix
}

// Placement records where the session's bound grids lie now (see
// Placement): the partitions and broadcast replicas of each bound variable
// that share its bound grid's blocks, copied, and the session's program
// forms.
func (e *Engine) Placement() Placement {
	p := Placement{dead: e.cluster.DeadWorkers(), rewriter: e.rewriter}
	for prog, f := range e.forms {
		p.forms = append(p.forms, placedForm{prog, f})
	}
	for name, vs := range e.vars {
		for _, s := range plannedSchemes {
			if inst := vs.instances[s]; inst != nil && vs.bound != nil && inst.Grid == vs.bound && !inst.Trans() {
				p.placed = append(p.placed, placedInstance{name: name, bound: vs.bound, inst: *inst})
			}
		}
	}
	return p
}

// Place restores placement p into the session after Bind: every recorded
// instance of a variable bound to the very grid p recorded for it, under a
// scheme the variable does not hold yet, returns as a fresh copy. No
// instance is restored when a worker was lost since p was taken. The forms
// of programs the session has none for return under the same rewriter,
// whatever the workers. It reports how many instances it restored.
func (e *Engine) Place(p Placement) int {
	for _, pf := range p.forms {
		if _, ok := e.forms[pf.prog]; !ok && p.rewriter == e.rewriter {
			e.forms[pf.prog] = pf.form
		}
	}
	if len(p.placed) == 0 || !slices.Equal(p.dead, e.cluster.DeadWorkers()) {
		return 0
	}
	n := 0
	for _, pi := range p.placed {
		vs := e.vars[pi.name]
		if vs == nil || vs.bound != pi.bound {
			continue
		}
		if _, ok := vs.instances[pi.inst.Scheme]; ok {
			continue
		}
		inst := pi.inst
		vs.instances[inst.Scheme] = &inst
		n++
	}
	return n
}
