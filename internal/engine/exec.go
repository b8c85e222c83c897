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
// machinery needs to rebuild or replay parts of it.
type execState struct {
	plan *core.Plan
	// sig is the session part of the plan's cache key (planInput), stamped
	// into checkpoint manifests so a stale snapshot (different session,
	// different plan) can never be restored into this execution.
	sig    string
	vals   []*dist.DistMatrix
	params map[string]float64
	// ledger holds one record per stage (ledger[s-1] is stage s's): every
	// window of the run that charges NetStats is booked into exactly one of
	// them, so the records partition the run's totals.
	ledger []StageMetrics
}

// execStats is what execute reports beyond success: the stage ledger and the
// durability counters of the run.
type execStats struct {
	perStage              []StageMetrics
	checkpointBytes       int64
	checkpointSeconds     float64
	checkpointWaitSeconds float64
	stagesReplayed        int
}

// window is an open stretch of the stage ledger: the network statistics and
// the clock when it opened.
type window struct {
	net   dist.Snapshot
	start time.Time
}

func (e *Engine) window() window { return window{e.cluster.Net().Snapshot(), time.Now()} }

// book closes w into stage's record: the wall time since w opened and what
// NetStats charged meanwhile, with the record's modelled seconds re-priced
// from its totals.
func (e *Engine) book(st *execState, stage int, w window) {
	net, cfg := e.cluster.Net().Snapshot(), e.cluster.Config()
	r := &st.ledger[stage-1]
	r.WallSeconds += time.Since(w.start).Seconds()
	r.FLOPs += net.FLOPs - w.net.FLOPs
	r.CommBytes += net.Bytes - w.net.Bytes
	r.CommEvents += net.CommEvents - w.net.CommEvents
	r.ComputeSeconds = cfg.Rates.ComputeSec(r.FLOPs, cfg.Workers*cfg.LocalParallelism, cfg.MaxSlowdown())
	r.NetworkSeconds = cfg.Rates.NetworkSec(r.CommBytes, r.CommEvents)
}

// execute materializes a validated plan on the cluster stage by stage, then
// folds assignments and scalar outputs back into the session.
//
// Stages are the fault-tolerance unit, exactly as on the paper's Spark
// substrate: every op's stage is >= the stage of each of its input values,
// so running stages in ascending order (keeping the plan's op order within a
// stage) is a valid topological order, and a failed stage can be retried in
// isolation once its inputs are recovered.
// It returns the run's stage ledger: each stage's wall time, FLOPs, bytes,
// events and modelled seconds over all its attempts, the recovery after its
// failures and its replays. Charges made after the last stage (the local
// transposes of foldBack) book to the last stage.
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
func (e *Engine) execute(ctx context.Context, plan *core.Plan, sig string, params map[string]float64) (stats execStats, err error) {
	st := &execState{
		plan:   plan,
		sig:    sig,
		vals:   make([]*dist.DistMatrix, len(plan.Values)),
		params: params,
		ledger: make([]StageMetrics, plan.Stages),
	}
	for i := range st.ledger {
		st.ledger[i].Stage = i + 1
	}
	stats.perStage = st.ledger
	e.cluster.BeginRun()
	e.joinSnapshot()
	e.ckpt.beginRun()
	if e.ckpt != nil {
		defer func() {
			e.joinSnapshot()
			stats.checkpointBytes = e.ckpt.bytes
			stats.checkpointSeconds = e.ckpt.seconds
			stats.checkpointWaitSeconds = e.ckpt.waitSeconds
			stats.stagesReplayed = e.ckpt.replayed
		}()
	}
	for s := 1; s <= plan.Stages; s++ {
		if err := ctx.Err(); err != nil {
			return stats, fmt.Errorf("engine: run cancelled before stage %d: %w", s, err)
		}
		span := e.tracer.Start("engine", stageName(s), e.tracer.Scope(),
			obs.Int64("stage", int64(s)), obs.Int64("ops", int64(len(plan.StageOps(s)))))
		prev := e.tracer.SetScope(span)
		err := e.runStage(ctx, st, s)
		e.tracer.SetScope(prev)
		e.tracer.End(span)
		if err != nil {
			return stats, err
		}
		rec := st.ledger[s-1]
		if e.metrics != nil {
			e.metrics.HistogramVec("engine.stage.seconds", obs.SecondsBuckets, "stage").
				With(strconv.Itoa(s)).Observe(rec.WallSeconds)
		}
		if e.ckpt != nil && s < plan.Stages {
			e.ckpt.noteStage(rec.ComputeSeconds + rec.NetworkSeconds)
			if live := e.liveAfter(st, s); e.shouldCheckpoint(live) {
				e.startSnapshot(st, s, span, live)
			}
		}
	}
	// What folding back charges (its local transposes) books to the last
	// stage, so the records still partition the run's totals. A plan with no
	// stages has no values to fold back.
	w := e.window()
	err = e.foldBack(ctx, st)
	if plan.Stages > 0 {
		e.book(st, plan.Stages, w)
	}
	return stats, err
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
// before retry n is charged as modelled stall: stageRetryBaseSec · 2^n,
// capped at stageRetryCapSec.
func (e *Engine) runStage(ctx context.Context, st *execState, stage int) error {
	cfg := e.cluster.Config()
	for attempt := 0; ; attempt++ {
		span := e.tracer.Start("engine", "attempt", e.tracer.Scope(),
			obs.Int64("stage", int64(stage)), obs.Int64("attempt", int64(attempt)))
		prev := e.tracer.SetScope(span)
		err := e.runStageOnce(ctx, st, stage, attempt)
		e.tracer.SetScope(prev)
		if err == nil {
			e.tracer.End(span)
			return nil
		}
		e.tracer.End(span, obs.String("error", err.Error()))
		var wf *dist.WorkerFailure
		if !errors.As(err, &wf) || attempt >= cfg.MaxStageRetries {
			return err
		}
		rec := e.tracer.Start("engine", "recover", e.tracer.Scope(),
			obs.Int64("stage", int64(stage)), obs.Int64("worker", int64(wf.Worker)))
		prev = e.tracer.SetScope(rec)
		e.recoverStage(st, stage, wf)
		var rerr error
		if e.ckpt != nil {
			rerr = e.restoreAndReplay(ctx, st, stage)
		}
		e.tracer.SetScope(prev)
		e.tracer.End(rec)
		if rerr != nil {
			return rerr
		}
		backoff := retry.Policy{BaseSec: stageRetryBaseSec, CapSec: stageRetryCapSec}.Backoff(attempt)
		e.cluster.Net().AddStall(backoff)
		e.cluster.Net().AddRetry()
		e.metrics.Counter("fault.retries").Inc()
	}
}

// replay is runStageOnce's attempt for a stage re-run after a restore.
const replay = -1

// runStageOnce is the only code that runs a stage's ops: a first attempt, a
// retry, or a replay after a restore. Whatever its window charges (wall time,
// FLOPs, bytes, events) is booked to stage's record. An attempt first arms the
// fault plan's events for it (BeginStage) and fails on an armed task kill that
// no operator consumed; a replay arms nothing, so its ops re-run exactly as
// they did before the failure.
func (e *Engine) runStageOnce(ctx context.Context, st *execState, stage, attempt int) error {
	defer e.book(st, stage, e.window())
	if attempt == replay {
		return e.runOps(ctx, st, stage)
	}
	if err := e.cluster.BeginStage(stage, attempt); err != nil {
		return err
	}
	if err := e.runOps(ctx, st, stage); err != nil {
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
// to the failed stage.
func (e *Engine) recoverStage(st *execState, stage int, wf *dist.WorkerFailure) {
	defer e.book(st, stage, e.window())
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
		e.cluster.ChargeRecovery(stage, wf.Worker, bytes)
	}
}

// opSpan opens the span of one plan operator under parent: name from the
// operator kind (plus the program node's label where there is one),
// attributes carrying stage, strategy and the dependency types satisfied on
// its input edges. Naming formats nothing: the name is the operator's cached
// Label and every key and value a constant, so a traced operator costs one
// allocation: its attributes, gathered on the stack and cloned to size.
func (e *Engine) opSpan(plan *core.Plan, stage int, op *core.Op, parent obs.SpanID) obs.SpanID {
	if !e.tracer.Enabled() {
		return 0
	}
	var buf [8]obs.Attr
	attrs := append(buf[:0],
		obs.Int64("stage", int64(stage)),
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
		to, err := e.reach(plan, op)
		if err != nil {
			return nil, err
		}
		return e.cluster.Broadcast(ctx, vals[op.Inputs[0]], op.Stage, to)
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

// reach resolves a broadcast's reach (core.Op.Reach) to the workers its
// readers run on: the union of each value's holders (Cluster.Holders) when
// cut at the session block size. Nil — every worker — for a reach of nil.
func (e *Engine) reach(plan *core.Plan, op *core.Op) ([]int, error) {
	if op.Reach == nil {
		return nil, nil
	}
	var to []int
	for _, id := range op.Reach {
		v := plan.Value(id)
		n := plan.Program.Nodes()[v.Matrix]
		rows, cols := n.Rows, n.Cols
		if v.Transposed {
			rows, cols = cols, rows
		}
		h, err := e.cluster.Holders(v.Scheme, rows, cols, e.blockSize)
		if err != nil {
			return nil, err
		}
		to = append(to, h...)
	}
	return to, nil
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
		ins := make([]*dist.DistMatrix, len(op.Inputs))
		for i := range ins {
			ins[i] = in(i)
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
// transposed first and charged like any transpose, even where the variable
// already holds that scheme and drops it.
func (e *Engine) foldBack(ctx context.Context, st *execState) error {
	for _, k := range st.plan.Keeps() {
		vs := e.vars[k.Var]
		if k.Assign {
			vs = &varState{rows: k.Ref.Rows(), cols: k.Ref.Cols(), instances: make(map[dep.Scheme]*dist.DistMatrix)}
		}
		for _, id := range k.Values {
			dm := st.vals[id]
			if dm == nil {
				return fmt.Errorf("engine: %q has no materialized value v%d", k.Var, id)
			}
			if dm.Reach() != nil {
				// A kept (b) instance must be everywhere: the next run's
				// readers may sit on any worker (core.Plan.holders).
				return fmt.Errorf("engine: %q would keep v%d, a broadcast on workers %v only", k.Var, id, dm.Reach())
			}
			if st.plan.Value(id).Transposed != k.Ref.Transposed {
				dm = e.cluster.Transpose(ctx, dm)
			}
			if _, ok := vs.instances[dm.Scheme]; !ok {
				vs.instances[dm.Scheme] = dm
			}
		}
		if len(vs.instances) == 0 {
			return fmt.Errorf("engine: assignment %q has no materialized value", k.Var)
		}
		e.vars[k.Var] = vs
	}
	return nil
}
