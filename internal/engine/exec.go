package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"dmac/internal/core"
	"dmac/internal/dep"
	"dmac/internal/dist"
	"dmac/internal/expr"
	"dmac/internal/obs"
	"dmac/internal/retry"
)

// execState is the live state of one plan execution: the value table the
// stages fill in, the stage ledger, and everything the checkpoint/restore
// machinery needs to rebuild or replay parts of it. A session runs one plan
// at a time, so the engine keeps one and reuses it, value table and stage
// contexts included; only the ledger is made anew, since the caller keeps
// it as Metrics.PerStage.
type execState struct {
	plan *core.Plan
	// sig is the session part of the plan's cache key (planInput), stamped
	// into checkpoint manifests so a stale snapshot (different session,
	// different plan) can never be restored into this execution.
	sig    string
	vals   []*dist.DistMatrix
	params map[string]float64
	// made[id] is what the operator that produced value id charged, as it
	// ran this run: a snapshot recomputes a value on restore instead of
	// writing it only when that moved no bytes and costs less than the write.
	made []dist.Snapshot
	// ledger holds one record per stage (ledger[s-1] is stage s's): every
	// charge of the run goes to exactly one of them, so the records sum to
	// the run's totals. It becomes the run's Metrics.PerStage.
	ledger []StageMetrics
	// stageCtxs[s-1] is base charging stage s's record (charging); they are
	// kept from run to run while runs come under the same context.
	base      context.Context
	stageCtxs []context.Context
}

// stageCharger is the dist.Charger of a stage's work outside the operators:
// it books to the stage's record in the current run's ledger.
type stageCharger struct {
	st    *execState
	stage int
}

func (c *stageCharger) Charge(s dist.Snapshot) { c.st.ledger[c.stage-1].Add(s) }

// charging returns ctx charging stage's record.
func (st *execState) charging(ctx context.Context, stage int) context.Context {
	if ctx != st.base {
		st.base = ctx
		clear(st.stageCtxs)
	}
	for len(st.stageCtxs) < stage {
		st.stageCtxs = append(st.stageCtxs, nil)
	}
	if st.stageCtxs[stage-1] == nil {
		st.stageCtxs[stage-1] = dist.WithCharger(ctx, &stageCharger{st, stage})
	}
	return st.stageCtxs[stage-1]
}

// since books the wall time since start to stage's record.
func (st *execState) since(stage int, start time.Time) {
	st.ledger[stage-1].WallSeconds += time.Since(start).Seconds()
}

// execute materializes a validated plan on the cluster stage by stage, then
// folds assignments and scalar outputs back into the session.
//
// Stages are the fault-tolerance unit, exactly as on the paper's Spark
// substrate: every op's stage is >= the stage of each of its input values,
// so running stages in ascending order (keeping the plan's op order within a
// stage) is a valid topological order, and a failed stage can be retried in
// isolation once its inputs are recovered.
// It returns the run's Metrics but its wall time: the stage ledger (each
// stage's charges, wall time and modelled seconds over all its attempts, the
// recovery after its failures and its replays), its sum priced, and the
// checkpoint counters. Charges made after the last stage (the local
// transposes of foldBack) book to the last stage. Whichever way it returns,
// the ledger's sum is booked to NetStats, once.
//
// Between stages the run's context is observed: cancellation or an expired
// deadline aborts cleanly with the context's error (mid-stage, the executor's
// workers observe the same context between block tasks). With a checkpointer
// attached (SetCheckpoint), the policy is consulted after every completed
// stage but the last — the ladder only restores snapshots taken before the
// failed stage, so one taken after the last could never be read — and
// selected snapshots of the values still live are handed to the background
// writer; whichever way execute returns, it first waits for the one in
// flight.
func (e *Engine) execute(ctx context.Context, plan *core.Plan, sig string, params map[string]float64, run obs.SpanID) (m Metrics, err error) {
	st := &e.st
	st.plan, st.sig, st.params = plan, sig, params
	if cap(st.vals) < len(plan.Values) {
		st.vals = make([]*dist.DistMatrix, len(plan.Values))
	}
	st.vals = st.vals[:len(plan.Values)]
	if cap(st.made) < len(plan.Values) {
		st.made = make([]dist.Snapshot, len(plan.Values))
	}
	st.made = st.made[:len(plan.Values)]
	clear(st.made)
	st.ledger = make([]StageMetrics, plan.Stages)
	cfg := e.cluster.Config()
	defer func() {
		for i := range st.ledger {
			r := &st.ledger[i]
			r.Stage = i + 1
			r.ComputeSeconds, r.NetworkSeconds = price(cfg, r.Snapshot)
			m.Snapshot.Add(r.Snapshot)
		}
		compute, network := price(cfg, m.Snapshot)
		m.ModelSeconds = compute + network + m.StallSec
		m.Stages, m.PerStage = plan.Stages, st.ledger
		e.cluster.EndRun(m.Snapshot)
		// Hold none of the run's values past it.
		clear(st.vals)
		st.plan, st.params, st.ledger = nil, nil, nil
	}()
	e.cluster.BeginRun()
	e.joinSnapshot(run)
	e.ckpt.beginRun()
	if e.ckpt != nil {
		defer func() {
			e.joinSnapshot(run)
			m.CheckpointBytes, m.CheckpointSeconds = e.ckpt.bytes, e.ckpt.seconds
			m.CheckpointWaitSeconds, m.StagesReplayed = e.ckpt.waitSeconds, e.ckpt.replayed
		}()
	}
	for s := 1; s <= plan.Stages; s++ {
		if err := ctx.Err(); err != nil {
			return m, fmt.Errorf("engine: run cancelled before stage %d: %w", s, err)
		}
		var span obs.SpanID
		if e.tracer.Enabled() {
			span = e.tracer.Start("engine", stageName(s), run,
				obs.Int64("stage", int64(s)), obs.Int64("ops", int64(len(plan.StageOps(s)))))
		}
		err := e.runStage(ctx, st, s, span)
		e.tracer.End(span)
		if err != nil {
			return m, err
		}
		rec := &st.ledger[s-1]
		e.inst.observeStage(s, rec.WallSeconds)
		if e.ckpt != nil && s < plan.Stages {
			compute, network := price(cfg, rec.Snapshot)
			e.ckpt.noteStage(compute + network)
			if live := e.liveAfter(st, s); e.shouldCheckpoint(live, run) {
				e.startSnapshot(st, s, live, run, span)
			}
		}
	}
	if e.ranStages != nil {
		e.ranStages(plan, st.vals)
	}
	// What folding back charges (its local transposes) books to the last
	// stage, so the records still sum to the run's totals. A plan with no
	// stages has no values to fold back.
	if plan.Stages > 0 {
		ctx = st.charging(ctx, plan.Stages)
		defer st.since(plan.Stages, time.Now())
	}
	return m, e.foldBack(ctx, st)
}

// Stage retry backoff, in modelled seconds.
const (
	stageRetryBaseSec = 0.05
	stageRetryCapSec  = 1.0
)

// runStage executes one stage, retrying on injected worker failures with
// capped exponential backoff. Each failed attempt recovers the stage's inputs
// from lineage (session instances and earlier stages' values) before the
// retry; the ops themselves are deterministic functions of their inputs, so a
// retried stage reproduces the exact blocks of a fault-free run. With a
// checkpointer attached, recovery additionally restores the newest valid
// on-disk snapshot and replays only the stages after it (the recovery ladder
// of restoreAndReplay), instead of relying on the full lineage. The backoff
// before retry n is charged to the stage as modelled stall:
// stageRetryBaseSec · 2^n, capped at stageRetryCapSec. Its attempt and
// recover spans parent under the stage's span.
func (e *Engine) runStage(ctx context.Context, st *execState, stage int, parent obs.SpanID) error {
	cfg := e.cluster.Config()
	for attempt := 0; ; attempt++ {
		var span obs.SpanID
		if e.tracer.Enabled() {
			span = e.tracer.Start("engine", "attempt", parent,
				obs.Int64("stage", int64(stage)), obs.Int64("attempt", int64(attempt)))
		}
		err := e.runStageOnce(ctx, st, stage, attempt, span)
		if err == nil {
			e.tracer.End(span)
			return nil
		}
		e.tracer.End(span, obs.String("error", err.Error()))
		var wf *dist.WorkerFailure
		if !errors.As(err, &wf) || attempt >= cfg.MaxStageRetries {
			return err
		}
		rec := e.tracer.Start("engine", "recover", parent,
			obs.Int64("stage", int64(stage)), obs.Int64("worker", int64(wf.Worker)))
		e.recoverStage(ctx, st, stage, wf, rec)
		var rerr error
		if e.ckpt != nil {
			rerr = e.restoreAndReplay(ctx, st, stage, rec)
		}
		e.tracer.End(rec)
		if rerr != nil {
			return rerr
		}
		backoff := retry.Policy{BaseSec: stageRetryBaseSec, CapSec: stageRetryCapSec}.Backoff(attempt)
		st.ledger[stage-1].Add(dist.Snapshot{Retries: 1, StallSec: backoff})
		e.metrics.Counter("fault.retries").Inc()
	}
}

// replay is runStageOnce's attempt for a stage re-run after a restore.
const replay = -1

// runStageOnce is the only code that runs a stage's ops: a first attempt, a
// retry, or a replay after a restore. Whatever it charges, and its wall time,
// is booked to stage's record. An attempt first arms the
// fault plan's events for it (BeginStage) and fails on an armed task kill that
// no operator consumed; a replay arms nothing, so its ops re-run exactly as
// they did before the failure. The ops' spans parent under parent.
func (e *Engine) runStageOnce(ctx context.Context, st *execState, stage, attempt int, parent obs.SpanID) error {
	defer st.since(stage, time.Now())
	if attempt == replay {
		return e.runOps(ctx, st, st.plan.StageOps(stage), nil, stage, parent)
	}
	if err := e.cluster.BeginStage(st.charging(ctx, stage), stage, attempt); err != nil {
		return err
	}
	if err := e.runOps(ctx, st, st.plan.StageOps(stage), nil, stage, parent); err != nil {
		return err
	}
	if f := e.cluster.TakeFault(); f != nil {
		return f
	}
	return nil
}

// recoverStage performs lineage-based recovery after a worker failure: every
// value live across the failed stage (the plan's LiveAfter of the stage
// before: what earlier stages materialized and this stage or a later one
// reads or the session keeps) and the session instances the stage's leaf ops
// read lose the dead worker's blocks, which must be re-fetched from lineage
// and re-partitioned across survivors. The dead worker's share is measured
// against pre-failure ownership (before the kill takes effect), then the
// worker is removed and the recovery shuffle is charged — all of it booked
// to the failed stage, its comm event traced under the recover span.
func (e *Engine) recoverStage(ctx context.Context, st *execState, stage int, wf *dist.WorkerFailure, span obs.SpanID) {
	defer st.since(stage, time.Now())
	var bytes int64
	for _, op := range st.plan.StageOps(stage) {
		if op.Kind == core.OpLoad || op.Kind == core.OpVar {
			if inst, err := e.leafInstance(op, st.plan); err == nil {
				bytes += e.cluster.WorkerBytes(inst, wf.Worker)
			}
		}
	}
	for _, id := range st.plan.LiveAfter(stage - 1) {
		if dm := st.vals[id]; dm != nil {
			bytes += e.cluster.WorkerBytes(dm, wf.Worker)
		}
	}
	if e.cluster.KillWorker(wf.Worker) {
		ctx = st.charging(ctx, stage)
		if span != 0 {
			ctx = obs.ContextWithSpan(ctx, span)
		}
		e.cluster.ChargeRecovery(ctx, stage, wf.Worker, bytes)
	}
}

// opSpan opens the span of one plan operator under parent: name from the
// operator kind (plus the program node's label where there is one),
// attributes carrying stage, strategy and the dependency types satisfied on
// its input edges. Naming formats nothing: the name is the operator's cached
// Label and every key and value a constant, so a traced operator costs one
// allocation: its attributes, gathered on the stack and cloned to size.
func (e *Engine) opSpan(plan *core.Plan, op *core.Op, parent obs.SpanID) obs.SpanID {
	if !e.tracer.Enabled() {
		return 0
	}
	var buf [8]obs.Attr
	attrs := append(buf[:0],
		obs.Int64("stage", int64(op.Stage)),
		obs.String("kind", op.Kind.String()))
	if op.Kind == core.OpCompute {
		attrs = append(attrs, obs.String("strategy", op.Strategy.String()))
		if n := op.Node; n.Kind.IsCellwise() {
			// len(n.Cells().Links), without the tree Cells builds for an
			// unfused kind's one link
			links, inPlace := int64(1), int64(0)
			if n.Kind == expr.KindFused {
				links = int64(len(n.Tree.Links))
			}
			if op.InPlace >= 0 {
				inPlace = 1
			}
			attrs = append(attrs, obs.Int64("links", links), obs.Int64("in_place", inPlace))
		}
	}
	for j, d := range op.InDeps {
		if d != dep.NoDependency {
			attrs = append(attrs, obs.String(depInKey(j), d.String()))
		}
	}
	if op.Output >= 0 {
		attrs = append(attrs, obs.String("out_scheme", plan.Value(op.Output).Scheme.String()))
	}
	return e.tracer.Start("op", op.Label(), parent, slices.Clone(attrs)...)
}

// stageNames and depInKeys spell the stage span names and operator
// dependency keys of the first stages and input edges, so that tracing them
// formats nothing; later ones are built with strconv.
var (
	stageNames = [...]string{"stage 0", "stage 1", "stage 2", "stage 3", "stage 4", "stage 5", "stage 6", "stage 7",
		"stage 8", "stage 9", "stage 10", "stage 11", "stage 12", "stage 13", "stage 14", "stage 15"}
	depInKeys = [...]string{"dep_in0", "dep_in1", "dep_in2", "dep_in3", "dep_in4", "dep_in5", "dep_in6", "dep_in7"}
)

// stageName is the span name of stage s.
func stageName(s int) string {
	if s >= 0 && s < len(stageNames) {
		return stageNames[s]
	}
	return "stage " + strconv.Itoa(s)
}

// depInKey is the attribute key of the dependency on input edge j.
func depInKey(j int) string {
	if j < len(depInKeys) {
		return depInKeys[j]
	}
	return "dep_in" + strconv.Itoa(j)
}

// dispatch runs one plan operator against the run's value table on the
// cluster; ctx carries the operator's span and turn (see stageRun).
func (e *Engine) dispatch(ctx context.Context, st *execState, op *core.Op) (*dist.DistMatrix, error) {
	plan, vals := st.plan, st.vals
	switch op.Kind {
	case core.OpLoad, core.OpVar:
		return e.leafInstance(op, plan)
	case core.OpPartition:
		return e.cluster.Partition(ctx, vals[op.Inputs[0]], plan.Value(op.Output).Scheme, op.Stage)
	case core.OpBroadcast:
		return e.cluster.Broadcast(ctx, vals[op.Inputs[0]], op.Stage, op.Reach)
	case core.OpTranspose:
		if op.CommBytes > 0 {
			// Baseline transpose job: shuffle-based.
			return e.cluster.ShuffleTranspose(ctx, vals[op.Inputs[0]], op.Stage)
		}
		return e.cluster.Transpose(ctx, vals[op.Inputs[0]]), nil
	case core.OpExtract:
		return e.cluster.Extract(ctx, vals[op.Inputs[0]], plan.Value(op.Output).Scheme)
	case core.OpCompute:
		return e.compute(ctx, plan, op, vals, st.params)
	default:
		return nil, fmt.Errorf("unexpected operator kind %v", op.Kind)
	}
}

// leafInstance resolves an OpLoad/OpVar to a session instance with the
// scheme the plan expects.
func (e *Engine) leafInstance(op *core.Op, plan *core.Plan) (*dist.DistMatrix, error) {
	name := op.Node.Name
	vs, ok := e.vars[name]
	if !ok {
		return nil, fmt.Errorf("no bound matrix %q", name)
	}
	if vs.rows != op.Node.Rows || vs.cols != op.Node.Cols {
		return nil, fmt.Errorf("%q is %dx%d, program declares %dx%d",
			name, vs.rows, vs.cols, op.Node.Rows, op.Node.Cols)
	}
	scheme := plan.Value(op.Output).Scheme
	inst, ok := vs.instances[scheme]
	if !ok {
		return nil, fmt.Errorf("%q has no cached instance with scheme %s", name, scheme)
	}
	return inst, nil
}

// compute executes an OpCompute with its chosen strategy.
func (e *Engine) compute(ctx context.Context, plan *core.Plan, op *core.Op, vals []*dist.DistMatrix, params map[string]float64) (*dist.DistMatrix, error) {
	n := op.Node
	in := func(i int) *dist.DistMatrix { return vals[op.Inputs[i]] }
	switch n.Kind {
	case expr.KindMul:
		var strat dist.MulStrategy
		switch op.Strategy {
		case core.RMM1:
			strat = dist.RMM1
		case core.RMM2:
			strat = dist.RMM2
		case core.CPMM:
			strat = dist.CPMM
		case core.Local:
			strat = dist.Local
		default:
			return nil, fmt.Errorf("multiplication with strategy %s", op.Strategy)
		}
		outScheme := dep.SchemeNone
		if op.Strategy == core.CPMM {
			outScheme = plan.Value(op.Output).Scheme
		}
		return e.cluster.Multiply(ctx, in(0), in(1), strat, outScheme, op.Stage)
	case expr.KindCell, expr.KindScalar, expr.KindUFunc, expr.KindFused:
		tree, err := n.Cells().Bind(params)
		if err != nil {
			return nil, err
		}
		var ibuf [8]*dist.DistMatrix // Cells keeps none of ins
		ins := ibuf[:0]
		for i := range op.Inputs {
			ins = append(ins, in(i))
		}
		out, err := e.cluster.Cells(ctx, tree, ins, op.InPlace)
		if err == nil && op.InPlace >= 0 {
			// The input's blocks now hold the result: nothing may reach
			// them under the old identity.
			vals[op.Inputs[op.InPlace]] = nil
		}
		return out, err
	case expr.KindSum:
		v, err := e.cluster.Sum(ctx, in(0), op.Stage)
		if err != nil {
			return nil, err
		}
		e.scalars[op.ScalarName] = v
		return nil, nil
	case expr.KindNorm2:
		v, err := e.cluster.Norm2(ctx, in(0), op.Stage)
		if err != nil {
			return nil, err
		}
		e.scalars[op.ScalarName] = v
		return nil, nil
	case expr.KindValue:
		v, err := e.cluster.Value(ctx, in(0), op.Stage)
		if err != nil {
			return nil, err
		}
		e.scalars[op.ScalarName] = v
		return nil, nil
	default:
		return nil, fmt.Errorf("compute with node kind %v", n.Kind)
	}
}

// foldBack hands the session what the plan keeps when a run ends
// (core.Plan.Keeps). An instance stored transposed to its variable is
// transposed first and charged like any transpose, unless the variable
// already holds the scheme the transpose would give: the first instance of a
// scheme is the one kept, and a later one is neither made nor charged. A
// broadcast replica keeps its reach, beside the complete instance a later
// run broadcasts from again when its readers need more (core.Plan.TooNarrow);
// the plan narrows no replica a variable keeps alone, and one kept alone is
// refused.
func (e *Engine) foldBack(ctx context.Context, st *execState) error {
	for _, k := range st.plan.Keeps() {
		vs := e.vars[k.Var]
		if k.Assign {
			// The variable's old state takes the new value: nothing holds
			// a session variable's state but the session.
			if vs == nil {
				vs = &varState{instances: make(map[dep.Scheme]*dist.DistMatrix)}
			}
			clear(vs.instances)
			vs.rows, vs.cols, vs.bound = k.Ref.Rows(), k.Ref.Cols(), nil
		}
		if err := e.keep(ctx, st, k, vs); err != nil {
			if k.Assign {
				delete(e.vars, k.Var) // a half-made value is no value
			}
			return err
		}
		e.vars[k.Var] = vs
	}
	return nil
}

// keep adds to vs the instances of k, foldBack's work for one variable.
func (e *Engine) keep(ctx context.Context, st *execState, k core.Keep, vs *varState) error {
	for _, id := range k.Values {
		dm := st.vals[id]
		if dm == nil {
			return fmt.Errorf("engine: %q has no materialized value v%d", k.Var, id)
		}
		flip := st.plan.Value(id).Transposed != k.Ref.Transposed
		scheme := dm.Scheme
		if flip {
			scheme = scheme.Opposite()
		}
		if _, ok := vs.instances[scheme]; ok {
			continue
		}
		if flip {
			dm = e.cluster.Transpose(ctx, dm)
		}
		vs.instances[scheme] = dm
	}
	if len(vs.instances) == 0 {
		return fmt.Errorf("engine: assignment %q has no materialized value", k.Var)
	}
	if b := vs.instances[dep.Broadcast]; b != nil && b.Reach() != nil && len(vs.instances) == 1 {
		return fmt.Errorf("engine: %q would keep only a broadcast on workers %v", k.Var, b.Reach())
	}
	return nil
}
