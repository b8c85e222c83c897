package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dmac/internal/core"
	"dmac/internal/dist"
	"dmac/internal/obs"
)

// runOps runs one attempt of a stage's operators as a dataflow graph and
// books their records to the stage's. Communication
// happens only between stages (§5.2); inside one, operators are ordered by
// the data they pass (core.Op.After), so the kernels of independent ones —
// GNMF's V·Hᵀ and H·Hᵀ, say — share the cores. Every operator gets one "op"
// span under the attempt span and one time-histogram sample.
//
// A session runs one stage at a time, so the engine keeps one stageRun and
// reuses it, operator records and turn contexts included: a steady run
// allocates nothing to dispatch its operators.
func (e *Engine) runOps(ctx context.Context, st *execState, stage int, parent obs.SpanID) error {
	ops := st.plan.StageOps(stage)
	r := &e.stage
	r.e, r.ctx, r.st, r.stage, r.ops = e, ctx, st, stage, ops
	r.parent, r.limit = parent, runtime.GOMAXPROCS(0)
	r.next, r.running, r.failed, r.finished = 0, 0, len(ops), 0
	r.cond.L = &r.mu
	if cap(r.state) < len(ops) {
		r.state = make([]opState, len(ops))
	}
	r.state = r.state[:len(ops)]
	for i := range ops {
		o := &r.state[i]
		*o = opState{r: r, i: i, charges: o.charges[:0], turnOf: o.turnOf, turnCtx: o.turnCtx}
	}
	err := r.run()
	// Hold none of the run's values past it.
	r.ctx, r.st, r.ops = nil, nil, nil
	return err
}

// stageRun runs one attempt of one stage. Operators begin in plan order: one
// starts once the operators it waits for have finished and the one before it
// has begun (passed its fault check, dist.Turn.Begun), which is what makes a
// task kill land on the same operator as in a serial run, with no later one
// started. Past that point only their kernels overlap: collectives run in
// plan order and the operators' records reach the stage's in plan order (the
// dist.Turn each operator carries), so the model numbers are those of a
// serial run to the bit, under any interleaving.
//
// The calling goroutine runs every operator it can, lowest index first. A
// helper goroutine takes an operator only when it becomes ready while
// another is running, and at most GOMAXPROCS run at once; a chain stage
// (each operator reading the one before it) never leaves the caller. The
// first failure stops new starts; operators already running finish, and run
// returns the failure with the lowest index once no goroutine it started is
// left.
type stageRun struct {
	e      *Engine
	ctx    context.Context
	st     *execState
	stage  int
	ops    []*core.Op
	parent obs.SpanID
	limit  int

	mu   sync.Mutex
	cond sync.Cond
	// next is the next operator to start; running counts those started and
	// not finished.
	next, running int
	// callerIdle is set while the calling goroutine waits for work.
	callerIdle bool
	// failed is the index of the first failed operator, len(ops) while none
	// has; finished counts the leading operators that have all finished,
	// whose records are in the stage's up to the failed one.
	failed, finished int
	state            []opState
	helpers          sync.WaitGroup
}

// opState is one operator of a stageRun, its dist.Turn, and its record: the
// charges it made, in order, and its wall seconds.
type opState struct {
	r           *stageRun
	i           int
	begun, done bool
	err         error
	// charges holds the operator's charges in the order it made them; only
	// its own goroutine appends, until it is done.
	charges []dist.Snapshot
	seconds float64
	// turnCtx is turnOf carrying this record as the operator's dist.Turn.
	turnOf, turnCtx context.Context
}

// errAttemptOver fails a collective whose turn never comes: an earlier
// operator failed, and its error is the one the attempt reports.
var errAttemptOver = errors.New("engine: an earlier operator of the stage failed")

func (o *opState) Begun() {
	r := o.r
	r.mu.Lock()
	defer r.mu.Unlock()
	o.begun = true
	if !r.ready() {
		return
	}
	if r.callerIdle {
		r.cond.Broadcast()
		return
	}
	r.helpers.Add(1)
	go r.help(r.claim())
}

func (o *opState) Collective() error {
	r := o.r
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.finished < o.i && r.failed > o.i {
		r.cond.Wait()
	}
	if r.failed < o.i {
		return errAttemptOver
	}
	return nil
}

func (o *opState) Charge(s dist.Snapshot) { o.charges = append(o.charges, s) }

// ready reports whether the next operator may start. r.mu is held.
func (r *stageRun) ready() bool {
	if r.next == len(r.ops) || r.failed < len(r.ops) || r.running >= r.limit {
		return false
	}
	if r.next > 0 && !r.state[r.next-1].begun {
		return false
	}
	for _, d := range r.ops[r.next].After {
		if !r.state[d].done {
			return false
		}
	}
	return true
}

// claim starts the next operator. r.mu is held.
func (r *stageRun) claim() int {
	r.next++
	r.running++
	return r.next - 1
}

// finish records operator i's end: it has begun, and a failure stops new
// starts. Every operator now finished along with all before it passes the
// collective turn, and its record goes to the stage's in plan order — none
// of an operator after the first failed one. r.mu is held.
func (r *stageRun) finish(i int, err error) {
	o := &r.state[i]
	o.begun, o.done, o.err = true, true, err
	r.running--
	if err != nil && i < r.failed {
		r.failed = i
	}
	rec := &r.st.ledger[r.stage-1]
	for ; r.finished < len(r.ops) && r.state[r.finished].done; r.finished++ {
		if r.finished <= r.failed {
			o := &r.state[r.finished]
			for _, s := range o.charges {
				rec.Add(s)
			}
			rec.OpSeconds += o.seconds
		}
	}
	r.cond.Broadcast()
}

// run is the calling goroutine's loop.
func (r *stageRun) run() error {
	r.mu.Lock()
	for {
		if r.ready() {
			i := r.claim()
			r.mu.Unlock()
			err := r.exec(i)
			r.mu.Lock()
			r.finish(i, err)
			continue
		}
		if r.running == 0 {
			break
		}
		r.callerIdle = true
		r.cond.Wait()
		r.callerIdle = false
	}
	r.mu.Unlock()
	r.helpers.Wait()
	if r.failed < len(r.ops) {
		return r.state[r.failed].err
	}
	return nil
}

// help runs operator i on a helper goroutine, then whatever becomes ready
// while the caller is busy.
func (r *stageRun) help(i int) {
	defer r.helpers.Done()
	for {
		err := r.exec(i)
		r.mu.Lock()
		r.finish(i, err)
		if r.callerIdle || !r.ready() {
			r.mu.Unlock()
			return
		}
		i = r.claim()
		r.mu.Unlock()
	}
}

// exec runs operator i under its span and turn and stores its output.
// Cancellation stops it before it starts.
func (r *stageRun) exec(i int) error {
	e, op, o := r.e, r.ops[i], &r.state[i]
	span := e.opSpan(r.st.plan, r.stage, op, r.parent)
	if o.turnOf != r.ctx {
		o.turnOf, o.turnCtx = r.ctx, dist.WithCharger(r.ctx, o)
	}
	ctx := o.turnCtx
	if span != 0 {
		ctx = obs.ContextWithSpan(ctx, span)
	}
	start := time.Now()
	var out *dist.DistMatrix
	err := r.ctx.Err()
	if err == nil {
		out, err = e.dispatch(ctx, r.st, op)
	}
	o.seconds = time.Since(start).Seconds()
	e.inst.observeOp(op.Kind, o.seconds)
	if err != nil {
		e.tracer.End(span, obs.String("error", err.Error()))
		return fmt.Errorf("engine: stage %d op %d (%s): %w", r.stage, i, op.Kind, err)
	}
	e.tracer.End(span)
	if op.Output >= 0 {
		if out == nil {
			return fmt.Errorf("engine: stage %d op %d produced no value", r.stage, i)
		}
		r.st.vals[op.Output] = out
	}
	return nil
}
