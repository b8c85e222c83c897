// Package engine executes matrix programs. It offers three engines over the
// same substrate, mirroring the paper's evaluation setup (Section 6.1):
//
//   - DMac: plans with the dependency-aware planner (internal/core.Generate)
//     and keeps the schemes of session variables across program executions,
//     so cross-iteration matrix dependencies are exploited.
//   - SystemML-S: identical runtime and local execution strategy, but plans
//     with core.GenerateSystemMLS — no dependency analysis, every operator
//     repartitions its inputs.
//   - Local: the single-machine in-memory reference ("R" in the paper's
//     figures): plans with core.GenerateLocal — one worker, every value
//     hash-placed, one stage, no communication.
//
// All three run their plans on one stage runner (execute): stage records,
// spans, per-operator metrics and cancellation between stages are the same
// for every engine.
//
// An Engine owns a session: named variables materialized by previous Run
// calls (with their schemes) and named driver scalars produced by aggregate
// operators.
package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"dmac/internal/core"
	"dmac/internal/cost"
	"dmac/internal/dep"
	"dmac/internal/dist"
	"dmac/internal/dist/transport"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/obs"
	"dmac/internal/rewrite"
	"dmac/internal/sched"
)

// Planner selects the planning mode of an engine.
type Planner int

// The three engines compared in the paper's experiments.
const (
	// DMac plans with matrix-dependency analysis (the paper's system).
	DMac Planner = iota
	// SystemMLS is the dependency-oblivious baseline.
	SystemMLS
	// Local is the single-machine in-memory reference.
	Local
)

// String names the planner as in the paper's figures.
func (p Planner) String() string {
	switch p {
	case DMac:
		return "DMac"
	case SystemMLS:
		return "SystemML-S"
	case Local:
		return "R"
	default:
		return fmt.Sprintf("Planner(%d)", int(p))
	}
}

// Metrics reports the cost of one Run: the run's charges, priced, and what
// the engine measures beside them.
type Metrics struct {
	// Snapshot is what the run charged (bytes, events and their
	// broadcast/shuffle split, FLOPs, recovery, retries, stall, corruptions,
	// wire traffic, network faults): the sum of its stage records, booked to
	// NetStats once when the run returns.
	dist.Snapshot
	// WallSeconds is the measured wall-clock time of the execution.
	WallSeconds float64
	// ModelSeconds is the deterministic modelled time: local compute spread
	// over workers and threads plus network transfer and shuffle latency,
	// plus the stall charged.
	ModelSeconds float64
	// Stages is the number of un-interleaved stages of the executed plan
	// (1 for the local engine).
	Stages int
	// CheckpointBytes and CheckpointSeconds are the durability work of the
	// run: bytes written to checkpoint snapshots and the time the background
	// writer was busy writing them (zero without SetCheckpoint). The writer
	// overlaps the stages that follow a snapshot, so CheckpointSeconds is not
	// time the run lost; CheckpointWaitSeconds is — the time the run was
	// blocked waiting for the writer (before a restore, before the next
	// snapshot, before returning).
	CheckpointBytes       int64
	CheckpointSeconds     float64
	CheckpointWaitSeconds float64
	// StagesReplayed counts stages re-executed during checkpoint-aware
	// recovery: after a worker failure the run restores the newest valid
	// snapshot and replays only the stages after it, so this is the
	// recomputation a checkpoint saved — or, with no valid checkpoint, the
	// full lineage it had to re-pay.
	StagesReplayed int
	// SubnormalsFlushed counts the result elements the block executor stored
	// as zero because they were subnormal (sched's result rule), summed over
	// the run's stages: zero unless a value fell below 2⁻¹⁰²².
	SubnormalsFlushed int64
	// PerStage is the stage ledger: one record per stage, in stage order
	// (one for the local engine). Every charge of the run is booked to
	// exactly one of them, so their Snapshots sum to the run's.
	PerStage []StageMetrics
}

// StageMetrics is the cost of one stage of one Run.
type StageMetrics struct {
	// Stage is the 1-based un-interleaved stage index.
	Stage int
	// Snapshot is what the stage charged: its operators' records in plan
	// order, its recovery shuffles, the stall of its delays, network faults
	// and retry backoff, and its retries.
	dist.Snapshot
	// WallSeconds is the measured wall-clock time of the stage: every
	// attempt, the recovery after its failures, and every replay of it after
	// a later stage's restore (a replay books to the stage it re-runs).
	WallSeconds float64
	// OpSeconds is the sum of the wall times of the stage's operators over
	// the same attempts and replays. Independent operators overlap, so it
	// exceeds WallSeconds by the time they shared the cores.
	OpSeconds float64
	// ComputeSeconds and NetworkSeconds price the stage's charges (price):
	// its FLOPs spread over all workers and threads times the straggler
	// slowdown, and its bytes over bandwidth plus per-event shuffle latency.
	// ComputeSeconds + NetworkSeconds + StallSec summed over the stages is
	// the run's ModelSeconds.
	ComputeSeconds float64
	NetworkSeconds float64
}

// price is the modelled compute and network seconds of charges c under cfg:
// the one place the engine prices a charge.
func price(cfg dist.Config, c dist.Snapshot) (compute, network float64) {
	return cfg.Rates.ComputeSec(c.FLOPs, cfg.Workers*cfg.LocalParallelism, cfg.MaxSlowdown()),
		cfg.Rates.NetworkSec(c.CommBytes, c.CommEvents)
}

// Add accumulates other into m (for per-iteration totals), merging the stage
// records by position: the records of a run are its stages in order. The
// merged records are a new slice, so a Metrics that shares m's never sees
// the sum.
func (m *Metrics) Add(other Metrics) {
	m.Snapshot.Add(other.Snapshot)
	m.WallSeconds += other.WallSeconds
	m.ModelSeconds += other.ModelSeconds
	m.Stages = max(m.Stages, other.Stages)
	m.CheckpointBytes += other.CheckpointBytes
	m.CheckpointSeconds += other.CheckpointSeconds
	m.CheckpointWaitSeconds += other.CheckpointWaitSeconds
	m.StagesReplayed += other.StagesReplayed
	m.SubnormalsFlushed += other.SubnormalsFlushed
	if len(other.PerStage) == 0 {
		return
	}
	stages := make([]StageMetrics, max(len(m.PerStage), len(other.PerStage)))
	copy(stages, m.PerStage)
	for i, s := range other.PerStage {
		dst := &stages[i]
		dst.Stage = s.Stage
		dst.Snapshot.Add(s.Snapshot)
		dst.WallSeconds += s.WallSeconds
		dst.OpSeconds += s.OpSeconds
		dst.ComputeSeconds += s.ComputeSeconds
		dst.NetworkSeconds += s.NetworkSeconds
	}
	m.PerStage = stages
}

// varState is a session variable: its instances per scheme, and the grid
// Bind gave it (nil once a run assigns the variable), which its hash-placed
// instance holds.
type varState struct {
	rows, cols int
	instances  map[dep.Scheme]*dist.DistMatrix
	bound      *matrix.Grid
}

// Engine runs matrix programs and maintains the session between runs.
//
// Concurrency contract: an Engine is a session and must be driven by at most
// one goroutine at a time — Bind, Run/RunCtx, Reset, Grid and the setters all
// touch unsynchronized session state (and RunCtx installs the engine's block
// pool on the cluster's executor for its duration). Run engines in parallel by
// giving each goroutine its own Engine; the serve job service does exactly
// that with a pool of engines, sharing only the concurrency-safe pieces (the
// metrics registry and the shared PlanCache) across them.
type Engine struct {
	planner   Planner
	cluster   *dist.Cluster
	blockSize int
	vars      map[string]*varState
	scalars   map[string]float64
	// ablation flags forwarded to the planner (see core.Config).
	disablePullUp   bool
	disableReassign bool
	disableCPMM     bool
	// plans holds generated plans under the key of what each was made from
	// (planInput): iterative algorithms stop replanning once the session
	// schemes settle, and engines sharing one cache (SetSharedPlanCache)
	// reuse each other's plans for structurally identical programs.
	plans     *PlanCache
	cacheHits int
	cacheMiss int
	// tracer and metrics observe execution when set (SetObserver); both are
	// valid nil (no-op) receivers. inst holds metrics' per-operator and
	// per-stage instruments.
	tracer  *obs.Tracer
	metrics *obs.Registry
	inst    *engineMetrics
	// rewriter, when set, canonicalizes every program through the algebraic
	// rewrite pass before planning and execution (SetRewriter).
	rewriter *rewrite.Rewriter
	// forms memoizes, per caller's Program pointer, the program the engine
	// plans and runs and its signature (form): a program is rewritten and
	// serialized once a session, and again when it has grown since.
	forms map[*expr.Program]*programForm
	// ckpt is the engine's checkpoint manager (nil without SetCheckpoint):
	// runs snapshot live values to disk under its policy and recover from the
	// newest valid snapshot instead of replaying the whole lineage.
	ckpt *checkpointer
	// baseCtx, when set, is the context Run uses in place of Background —
	// how process-level deadlines reach sessions driven through
	// context-oblivious call sites (the bundled applications).
	baseCtx context.Context
	// pool is the engine's result buffer pool: installed on the executor for
	// each run, it owns the dense result blocks the run allocates until
	// reclaim finds them unreachable or Grid hands them to a caller.
	pool *sched.BlockPool
	// st is the state of the current plan execution (execute), stage
	// runs the operators of the current stage (runOps), live is reclaim's
	// set of the blocks the session reaches, and keyBuf is where planInput
	// writes the session part of the plan-cache key: each kept and reused
	// from run to run.
	st     execState
	stage  stageRun
	live   map[*matrix.DenseBlock]bool
	keyBuf []byte
}

// programForm is what the engine plans and runs for a caller's program: the
// program itself without a rewriter, otherwise the rewrite pass's output,
// with its ProgramSignature and the sorted names of the session variables it
// reads (its Var and Load leaves, the names the planner looks up).
type programForm struct {
	prog *expr.Program
	sig  string
	vars []string
	// size is the caller's program's Size when the form was made.
	size int
	// input is the part of the plan-cache key after sig that planInput wrote
	// last for this program, and cfg and key the config and key it gave.
	input string
	cfg   core.Config
	key   string
}

// PlanCacheStats reports how many of this engine's Run calls reused a cached
// plan versus generated one. A plan another engine put in a shared cache
// (SetSharedPlanCache) counts as a hit: this engine did not generate it.
func (e *Engine) PlanCacheStats() (hits, misses int) { return e.cacheHits, e.cacheMiss }

// SetSharedPlanCache makes pc the engine's plan cache, shared with the other
// engines it is handed to; nil gives the engine a private cache again. Every
// run looks its plan up there and puts a plan it generates there. The cache
// is safe for concurrent use, so one PlanCache may back a whole pool of
// engines.
func (e *Engine) SetSharedPlanCache(pc *PlanCache) {
	if pc == nil {
		pc = NewPlanCache(0)
	}
	e.plans = pc
}

// Reset clears the session for reuse by the next job: bound variables,
// driver scalars, the per-program memo (finished jobs' Program objects would
// otherwise be pinned forever), and the base context installed by the
// previous owner. The cluster, observers, ablation flags, checkpoint
// configuration and the plan cache survive — they are the engine's
// infrastructure, not session state. Every result block the session held
// and no caller was handed goes back to the block pool for the next job, as
// a run's overwritten variables' blocks go back before its stages (RunCtx).
// A next job that binds the same grids as an earlier one may take back
// where that job left them: Placement before Reset, Place after Bind.
func (e *Engine) Reset() {
	e.vars = make(map[string]*varState)
	e.scalars = make(map[string]float64)
	e.forms = nil
	e.baseCtx = nil
	e.reclaim()
}

// reclaim returns to the block pool every result block it owns that no
// session variable reaches — any instance, views included, matched by block
// identity, so grids shared by partitions and views and blocks an in-place
// operator wrote are kept while anything holds them. It runs at three points,
// none with a snapshot in flight (execute joins the writer on every path):
// in RunCtx once the plan is made and the variables the run overwrites
// without reading are dropped, after a run has returned, and on Reset. A
// block a caller holds was disowned by Grid.
func (e *Engine) reclaim() {
	if e.pool.Owned() == 0 {
		return
	}
	if e.live == nil {
		e.live = make(map[*matrix.DenseBlock]bool)
	}
	live := e.live
	for _, vs := range e.vars {
		for _, inst := range vs.instances {
			g := inst.Grid
			for bi := 0; bi < g.BlockRows(); bi++ {
				for bj := 0; bj < g.BlockCols(); bj++ {
					if d, ok := g.Block(bi, bj).(*matrix.DenseBlock); ok {
						live[d] = true
					}
				}
			}
		}
	}
	e.pool.Reclaim(live)
	clear(live) // kept empty, so it holds no block between reclaims
}

// SetRewriter attaches (or with nil, detaches) the algebraic rewrite pass:
// every program handed to Run/RunCtx/Plan is rewritten first, and planning,
// caching and execution all see the rewritten program. Changing the rewriter
// clears the per-program memo; the plan cache key records whether the pass
// ran.
func (e *Engine) SetRewriter(r *rewrite.Rewriter) {
	e.rewriter = r
	e.forms = nil
}

// Rewriter returns the attached rewriter (nil when rewriting is off).
func (e *Engine) Rewriter() *rewrite.Rewriter { return e.rewriter }

// form resolves, once per Program pointer and session and again whenever p
// has grown, the program the engine plans and executes for p and its
// signature (programForm). A rewrite it runs is traced under parent.
func (e *Engine) form(p *expr.Program, parent obs.SpanID) *programForm {
	if f, ok := e.forms[p]; ok && f.size == p.Size() {
		return f
	}
	f := &programForm{prog: p, size: p.Size()}
	if e.rewriter != nil {
		f.prog = e.rewrite(p, parent)
	}
	f.sig = ProgramSignature(f.prog)
	for _, n := range f.prog.Nodes() {
		if n.Kind == expr.KindVar || n.Kind == expr.KindLoad {
			f.vars = append(f.vars, n.Name)
		}
	}
	sort.Strings(f.vars)
	f.vars = slices.Compact(f.vars)
	if e.forms == nil {
		e.forms = make(map[*expr.Program]*programForm)
	}
	e.forms[p] = f
	return f
}

// reads reports whether the program reads session variable name through a
// leaf.
func (f *programForm) reads(name string) bool { return slices.Contains(f.vars, name) }

// rewrite runs the rewrite pass on p, recording the decisions as span events
// under an "engine/rewrite" span (a child of parent) and feeding the rewrite
// counters. A rewrite failure (a rewriter bug, not a user error) falls back
// to the unrewritten program rather than failing the run.
func (e *Engine) rewrite(p *expr.Program, parent obs.SpanID) *expr.Program {
	span := e.tracer.Start("engine", "rewrite", parent)
	res, err := e.rewriter.Rewrite(p)
	if err != nil {
		e.metrics.Counter("rewrite.errors").Inc()
		e.tracer.End(span, obs.String("error", err.Error()))
		res = &rewrite.Result{Program: p}
	} else {
		for _, d := range res.Decisions {
			e.tracer.Event("rewrite", d.Rule, span,
				obs.String("node", d.Node),
				obs.String("detail", d.Detail),
				obs.Float64("flops_saved", d.FLOPsSaved),
				obs.Int64("bytes_saved", d.BytesSaved))
			// A program is rewritten once a session, so the rule's counter
			// is looked up by name.
			applied := "rewrite.applied." + d.Rule
			e.metrics.Counter("rewrite.applied").Inc()
			e.metrics.Counter(applied).Inc()
		}
		e.metrics.Counter("rewrite.programs").Inc()
		e.metrics.Counter("rewrite.predicted.flops_saved").Add(int64(res.FLOPsSaved()))
		e.metrics.Counter("rewrite.predicted.bytes_saved").Add(res.BytesSaved())
		e.tracer.End(span,
			obs.Int64("applied", int64(len(res.Decisions))),
			obs.Float64("cost_before", res.CostBefore),
			obs.Float64("cost_after", res.CostAfter))
	}
	return res.Program
}

// SetAblation toggles the planner heuristics for ablation studies: Pull-Up
// Broadcast, Re-assignment, and the CPMM strategy. The plan cache key
// records the flags.
func (e *Engine) SetAblation(disablePullUp, disableReassign, disableCPMM bool) {
	e.disablePullUp = disablePullUp
	e.disableReassign = disableReassign
	e.disableCPMM = disableCPMM
}

// New creates an engine. blockSize is the session's block side until a bind
// into the empty session sets another (see Bind; BlockSizeFor picks one for
// the data); cfg configures the simulated cluster.
func New(planner Planner, cfg dist.Config, blockSize int) *Engine {
	if planner == Local {
		cfg.Workers = 1
		cfg.WorkerAddrs = nil
	}
	c := dist.NewCluster(cfg)
	if len(cfg.WorkerAddrs) > 0 {
		// Worker addresses turn the data plane real: blocks travel to the
		// listed dmacworker processes over TCP. The cost model is unchanged —
		// measured wire traffic lands next to it in Metrics.WireBytes.
		c.SetTransport(transport.NewTCP(transport.Config{Addrs: cfg.WorkerAddrs}))
	}
	return &Engine{
		planner:   planner,
		cluster:   c,
		blockSize: blockSize,
		vars:      make(map[string]*varState),
		scalars:   make(map[string]float64),
		plans:     NewPlanCache(0),
		pool:      sched.NewBlockPool(),
	}
}

// Close releases the engine's transport resources (TCP connections and
// heartbeat loops when worker addresses are configured; a no-op for the
// in-process data plane).
func (e *Engine) Close() error {
	e.joinSnapshot(0)
	return e.cluster.Close()
}

// SetObserver attaches a span tracer and a metrics registry to the engine,
// its cluster, and its local executor. Either may be nil to disable that
// half. With a tracer attached every Run emits a span tree — run → stage →
// attempt → operator, with communication events and task batches hanging
// under the operator that caused them — exportable via the obs package
// (Chrome trace JSON, per-stage table). With a registry attached the engine
// feeds per-operator time histograms and plan-cache/fault counters.
func (e *Engine) SetObserver(t *obs.Tracer, m *obs.Registry) {
	e.tracer = t
	e.metrics = m
	e.inst = &engineMetrics{reg: m}
	e.cluster.SetObserver(t, m)
}

// engineMetrics holds the instruments a run observes per operator and per
// stage, from one attached registry, each resolved on its first observation
// and held after it (a nil registry's are nil, no-op metrics).
type engineMetrics struct {
	reg *obs.Registry
	ops [core.OpReference + 1]obs.Lazy[opMetrics] // by core.OpKind
	// stages holds engine.stage.seconds' child of stage s at s-1; only the
	// goroutine running the engine's stages reads it.
	stages []*obs.Histogram
}

type opMetrics struct {
	seconds *obs.Histogram
	count   *obs.Counter
}

// observeOp records one operator of kind k that ran for seconds in
// op.<kind>.seconds and op.<kind>.count (nothing on a nil receiver).
func (m *engineMetrics) observeOp(k core.OpKind, seconds float64) {
	if m == nil {
		return
	}
	om := m.ops[k].Get(func() *opMetrics {
		prefix := "op." + k.String()
		hist, count := prefix+".seconds", prefix+".count"
		return &opMetrics{m.reg.Histogram(hist, obs.SecondsBuckets), m.reg.Counter(count)}
	})
	om.seconds.Observe(seconds)
	om.count.Inc()
}

// observeStage records stage s's wall seconds (nothing on a nil receiver).
func (m *engineMetrics) observeStage(s int, seconds float64) {
	if m == nil {
		return
	}
	for len(m.stages) < s {
		m.stages = append(m.stages, nil)
	}
	if m.stages[s-1] == nil {
		m.stages[s-1] = m.reg.HistogramVec("engine.stage.seconds", obs.SecondsBuckets, "stage").With(strconv.Itoa(s))
	}
	m.stages[s-1].Observe(seconds)
}

// Tracer returns the attached tracer (nil when tracing is off).
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// MetricsRegistry returns the attached metrics registry (nil when metrics
// are off).
func (e *Engine) MetricsRegistry() *obs.Registry { return e.metrics }

// Planner returns the engine's planning mode.
func (e *Engine) Planner() Planner { return e.planner }

// Cluster exposes the underlying simulated cluster.
func (e *Engine) Cluster() *dist.Cluster { return e.cluster }

// BlockSize returns the session block size (0 until a bind sets one, when
// New was given none).
func (e *Engine) BlockSize() int { return e.blockSize }

// BlockSizeFor is the paper's block-size selection (§5.3) for a rows x cols
// matrix of the given expected density: Eq. 3 on as many of the cluster's L·K
// threads (K = 1 on a Local engine) as the matrix's entries pay for
// (cost.TaskThreads). It reads only the cluster's fixed shape, so it may be
// called while the session runs.
func (e *Engine) BlockSizeFor(rows, cols int, density float64) int {
	threads := cost.TaskThreads(rows, cols, density, e.cluster.LocalParallelism()*e.cluster.Workers())
	return sched.ChooseBlockSize(rows, cols, threads, 1)
}

// Bind registers an input matrix under a name. A bind into an empty session
// (after New or Reset) makes the grid's block size the session's; every
// later grid must use it. Bound data starts hash-partitioned, like a fresh
// load in the paper; program Load/Var leaves with this name resolve to it.
func (e *Engine) Bind(name string, g *matrix.Grid) error {
	if len(e.vars) == 0 {
		e.blockSize = g.BlockSize()
	} else if g.BlockSize() != e.blockSize {
		return fmt.Errorf("engine: %s has block size %d, session uses %d", name, g.BlockSize(), e.blockSize)
	}
	e.vars[name] = &varState{
		rows: g.Rows(),
		cols: g.Cols(),
		instances: map[dep.Scheme]*dist.DistMatrix{
			dep.SchemeNone: dist.NewDistMatrix(g, dep.SchemeNone),
		},
		bound: g,
	}
	return nil
}

// Scalar returns a driver scalar produced by an aggregate operator, and
// whether it exists.
func (e *Engine) Scalar(name string) (float64, bool) {
	v, ok := e.scalars[name]
	return v, ok
}

// SetScalar pre-sets a driver scalar (rarely needed; parameters are usually
// passed to Run).
func (e *Engine) SetScalar(name string, v float64) { e.scalars[name] = v }

// Grid returns a materialized session variable's data for verification and
// export, and whether the variable exists. Instances are probed in a fixed
// scheme order so repeated calls (and repeated runs) always return the same
// instance — map iteration order must not leak into results. The grid is the
// caller's from then on: its blocks leave the block pool for good, so no
// later run reuses them, whatever the session does with the variable.
func (e *Engine) Grid(name string) (*matrix.Grid, bool) {
	g, ok := e.varGrid(name)
	if ok {
		e.pool.Disown(g)
	}
	return g, ok
}

// varGrid is Grid without the hand-over: the variable's grid, still the
// session's.
func (e *Engine) varGrid(name string) (*matrix.Grid, bool) {
	vs, ok := e.vars[name]
	if !ok {
		return nil, false
	}
	for _, s := range []dep.Scheme{dep.Row, dep.Col, dep.Broadcast, dep.SchemeNone} {
		if inst, ok := vs.instances[s]; ok {
			// A lazy transpose view is realized here (in place, once): Grid
			// promises blocks in the variable's logical orientation.
			return e.cluster.MaterializedGrid(inst), true
		}
	}
	return nil, false
}

// VarSchemes lists the schemes a session variable is cached with; used to
// build the planner configuration and by tests.
func (e *Engine) VarSchemes(name string) []dep.Scheme {
	vs, ok := e.vars[name]
	if !ok {
		return nil
	}
	out := make([]dep.Scheme, 0, len(vs.instances))
	for _, s := range []dep.Scheme{dep.Row, dep.Col, dep.Broadcast, dep.SchemeNone} {
		if _, ok := vs.instances[s]; ok {
			out = append(out, s)
		}
	}
	return out
}

// planInput is what the planner is given for f against the current session
// — the planner kind, whether the rewrite pass ran, and the core.Config of
// the session schemes of the variables f reads — and the key the plan is
// cached under: f's signature followed by all of that, written in a fixed
// order. A plan is a function of exactly these (Algorithm 1), so one key is
// one plan, whichever engine or Program object asks. The session part is
// written into the engine's key buffer; while it stays as it was, f's config
// and key are reused rather than built again.
func (e *Engine) planInput(f *programForm) (core.Config, string) {
	b := append(e.keyBuf[:0], "pl="...)
	b = strconv.AppendInt(b, int64(e.planner), 10)
	b = strconv.AppendBool(append(b, ";rw="...), e.rewriter != nil)
	b = strconv.AppendInt(append(b, ";w="...), int64(e.cluster.Workers()), 10)
	b = strconv.AppendBool(append(b, ";pu="...), e.disablePullUp)
	b = strconv.AppendBool(append(b, ";ra="...), e.disableReassign)
	b = strconv.AppendBool(append(b, ";cp="...), e.disableCPMM)
	b = append(b, ';')
	for _, name := range f.vars {
		// Variables cached only hash-partitioned are left out: the planner
		// treats unknown variables as hash-partitioned already.
		at := len(b)
		b = append(strconv.AppendQuote(b, name), ':')
		named := len(b)
		if vs := e.vars[name]; vs != nil {
			for _, s := range plannedSchemes {
				if _, ok := vs.instances[s]; ok {
					b = append(b, s.String()...)
				}
			}
		}
		if len(b) == named {
			b = b[:at]
			continue
		}
		b = append(b, ';')
	}
	e.keyBuf = b
	if string(b) != f.input {
		f.input = string(b)
		f.key = f.sig + "|" + f.input
		f.cfg = core.Config{
			Workers:         e.cluster.Workers(),
			Vars:            make(map[string][]dep.Scheme, len(f.vars)),
			DisablePullUp:   e.disablePullUp,
			DisableReassign: e.disableReassign,
			DisableCPMM:     e.disableCPMM,
		}
		for _, name := range f.vars {
			if schemes := slices.DeleteFunc(e.VarSchemes(name), func(s dep.Scheme) bool { return s == dep.SchemeNone }); len(schemes) > 0 {
				f.cfg.Vars[name] = schemes
			}
		}
	}
	return f.cfg, f.key
}

// plannedSchemes are the schemes of a session variable the planner is told
// of, in the order VarSchemes lists them.
var plannedSchemes = [...]dep.Scheme{dep.Row, dep.Col, dep.Broadcast}

// Run plans and executes a program against the session. params provides the
// values of named scalar parameters (expr.ScalarParam). On success the
// program's assignments update the session variables and its scalar outputs
// update the session scalars. A variable the program assigns but reads
// nowhere is dropped once the plan is made, before any stage runs: a run
// that fails or is cancelled after that leaves it unbound, never holding its
// old value or part of a new one.
func (e *Engine) Run(p *expr.Program, params map[string]float64) (Metrics, error) {
	return e.RunCtx(e.baseCtx, p, params)
}

// SetBaseContext sets the context Run uses when the caller passes none
// (RunCtx with an explicit context is unaffected). It lets a deadline or
// cancellation reach every run of a session that is driven through
// context-oblivious call sites, such as the bundled applications. A nil
// context restores Background.
func (e *Engine) SetBaseContext(ctx context.Context) { e.baseCtx = ctx }

// RunCtx is Run under a context: cancellation or an expired deadline aborts
// the execution cleanly — between stages at the engine level, and between
// block tasks inside a stage (the executor's workers observe the same
// context) — returning the context's error. A nil context means Background.
// As with Run, an aborted run leaves the variables the program overwrites
// without reading unbound.
func (e *Engine) RunCtx(ctx context.Context, p *expr.Program, params map[string]float64) (m Metrics, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The run takes its result blocks from the engine's pool; once it has
	// returned, whatever it left unreachable goes back to the free list.
	exec := e.cluster.Executor()
	exec.SetPool(e.pool)
	flushed := exec.Flushed()
	defer func() {
		exec.SetPool(nil)
		e.reclaim()
		if err == nil {
			m.SubnormalsFlushed = exec.Flushed() - flushed
		}
	}()
	// The rewrite pass (when attached) canonicalizes the program first;
	// everything downstream — plan generation, the plan cache and execution
	// — sees the rewritten program, so equivalent but differently written
	// jobs share one cache entry. Its span and the run's parent under the
	// span ctx carries, so a caller that wraps runs in its own span (the
	// serve job service's per-job root span) gets the rewrite and the
	// engine's whole stage tree under it; with none the run is a root span.
	parent := e.tracer.Parent(ctx)
	f := e.form(p, parent)
	// A plan that reads a kept broadcast replica beyond its reach drops the
	// replica and is made again, from the schemes the session has left.
	var plan *core.Plan
	source, dropped := "", false
	for {
		cfg, key := e.planInput(f)
		source = "hit"
		if plan = e.plans.Get(key); plan == nil {
			source = "miss"
			if plan, err = e.generate(f.prog, cfg); err != nil {
				return Metrics{}, err
			}
			if err := plan.Check(); err != nil {
				return Metrics{}, err
			}
			e.plans.Put(key, plan)
		}
		narrow, err := e.dropNarrowReplicas(plan)
		if err != nil {
			return Metrics{}, err
		}
		if !narrow {
			break
		}
		dropped = true
	}
	if source == "hit" {
		e.cacheHits++
		e.metrics.Counter("plan.cache.hits").Inc()
	} else {
		e.cacheMiss++
		e.metrics.Counter("plan.cache.misses").Inc()
	}
	// What the run overwrites without reading is dead once its plan is
	// made: dropped now, its blocks nothing else reaches go back to the pool
	// and become the run's first result blocks, instead of sitting beside
	// them until the run returns. A run that fails from here on leaves those
	// variables unbound.
	for _, k := range plan.Keeps() {
		if _, bound := e.vars[k.Var]; bound && k.Assign && !f.reads(k.Var) {
			delete(e.vars, k.Var)
			dropped = true
		}
	}
	if dropped {
		e.reclaim()
	}
	var runSpan obs.SpanID
	if e.tracer.Enabled() {
		runSpan = e.tracer.Start("engine", "run", parent,
			obs.String("planner", e.planner.String()),
			obs.Int64("stages", int64(plan.Stages)),
			obs.Int64("ops", int64(len(plan.Ops))),
			obs.Int64("plan_comm_bytes", plan.TotalCommBytes()),
			obs.String("plan_cache", source))
	}
	start := time.Now()
	m, err = e.execute(ctx, plan, f.input, params, runSpan)
	if err != nil {
		// A run aborted by its context must surface as that context's error:
		// callers (the serve job service above all) discriminate cancellation
		// from genuine stage failures with errors.Is. Most abort paths already
		// propagate ctx.Err() wrapped; this catches any that replaced it with
		// a stage-failure message.
		if cerr := ctx.Err(); cerr != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("engine: run aborted (%v): %w", err, cerr)
		}
		e.tracer.End(runSpan, obs.String("error", err.Error()))
		return Metrics{}, err
	}
	m.WallSeconds = time.Since(start).Seconds()
	e.tracer.End(runSpan, obs.Int64("comm_bytes", m.CommBytes))
	return m, nil
}

// Plan returns the plan the engine would execute for a program against the
// current session, without executing it (the dmacplan explain path). Like
// Run, it plans the rewritten program when a rewriter is attached, and drops
// a kept broadcast replica the plan reads beyond its reach and plans again.
func (e *Engine) Plan(p *expr.Program) (*core.Plan, error) {
	f := e.form(p, 0)
	for {
		cfg, _ := e.planInput(f)
		plan, err := e.generate(f.prog, cfg)
		if err != nil {
			return nil, err
		}
		if narrow, err := e.dropNarrowReplicas(plan); err != nil || !narrow {
			return plan, err
		}
	}
}

// generate plans a (rewritten) program under cfg with the engine's planner:
// the one place the three planners part ways.
func (e *Engine) generate(rp *expr.Program, cfg core.Config) (*core.Plan, error) {
	switch e.planner {
	case DMac:
		return core.Generate(rp, cfg)
	case SystemMLS:
		return core.GenerateSystemMLS(rp, cfg)
	case Local:
		return core.GenerateLocal(rp)
	default:
		return nil, fmt.Errorf("engine: unknown planner %d", e.planner)
	}
}
