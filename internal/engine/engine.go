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
	"sort"
	"strings"
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

// Metrics reports the cost of one Run.
type Metrics struct {
	// WallSeconds is the measured wall-clock time of the execution.
	WallSeconds float64
	// ModelSeconds is the deterministic modelled time: local compute spread
	// over workers and threads plus network transfer and shuffle latency.
	ModelSeconds float64
	// CommBytes is the data moved across workers.
	CommBytes int64
	// CommEvents counts shuffle/broadcast operations.
	CommEvents int
	// FLOPs is the estimated arithmetic performed.
	FLOPs float64
	// Stages is the number of un-interleaved stages of the executed plan
	// (1 for the local engine).
	Stages int
	// Retries counts stage attempts repeated after worker failures.
	Retries int
	// RecoveryBytes is the share of CommBytes spent re-partitioning dead
	// workers' blocks across survivors after failures.
	RecoveryBytes int64
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
	// CorruptionsInjected and CorruptionsDetected count block corruptions
	// fired by the fault injector and those caught by checksum verification
	// at block hand-off; equal counts are the run's integrity invariant.
	CorruptionsInjected int
	CorruptionsDetected int
	// Broadcasts and Shuffles split CommEvents by kind, so strategy choices
	// (replicate vs repartition) are countable per run.
	Broadcasts int
	Shuffles   int
	// WireBytes and WireFrames are the traffic the transport actually put on
	// the wire (payload plus framing), measured rather than modelled. Zero
	// for the in-process transport; over TCP they reconcile with CommBytes
	// up to framing overhead and retransmits.
	WireBytes  int64
	WireFrames int64
	// NetDropsInjected and NetDelaysInjected count network faults fired by
	// the injector: frame drops healed by retransmit and scripted delays
	// charged as stall. Both leave results untouched by construction.
	NetDropsInjected  int
	NetDelaysInjected int
	// SubnormalsFlushed counts the result elements the block executor stored
	// as zero because they were subnormal (sched's result rule), summed over
	// the run's stages: zero unless a value fell below 2⁻¹⁰²².
	SubnormalsFlushed int64
	// PerStage attributes the run to its stages, separating measured wall
	// time, modelled local compute time and modelled network time — the
	// per-stage decomposition the run-level ModelSeconds folds together.
	// Sorted by stage; one record for the local engine.
	PerStage []StageMetrics
}

// StageMetrics is the cost of one stage of one Run.
type StageMetrics struct {
	// Stage is the 1-based un-interleaved stage index.
	Stage int
	// WallSeconds is the measured wall-clock time of the stage: every
	// attempt, the recovery after its failures, and every replay of it after
	// a later stage's restore (a replay books to the stage it re-runs).
	WallSeconds float64
	// OpSeconds is the sum of the wall times of the stage's operators over
	// the same attempts and replays. Independent operators overlap, so it
	// exceeds WallSeconds by the time they shared the cores.
	OpSeconds float64
	// ComputeSeconds is the modelled local compute time of the stage: its
	// attributed FLOPs spread over all workers and threads, times the
	// straggler slowdown.
	ComputeSeconds float64
	// NetworkSeconds is the modelled (virtual) network time of the
	// communication charged to the stage: bytes over bandwidth plus
	// per-event shuffle latency.
	NetworkSeconds float64
	// CommBytes and CommEvents count the communication charged to the
	// stage, its recovery shuffles included.
	CommBytes  int64
	CommEvents int
	// FLOPs is the arithmetic attributed to the stage.
	FLOPs float64
}

// Add accumulates other into m (for per-iteration totals).
func (m *Metrics) Add(other Metrics) {
	m.WallSeconds += other.WallSeconds
	m.ModelSeconds += other.ModelSeconds
	m.CommBytes += other.CommBytes
	m.CommEvents += other.CommEvents
	m.FLOPs += other.FLOPs
	m.Retries += other.Retries
	m.RecoveryBytes += other.RecoveryBytes
	m.Broadcasts += other.Broadcasts
	m.Shuffles += other.Shuffles
	m.CheckpointBytes += other.CheckpointBytes
	m.CheckpointSeconds += other.CheckpointSeconds
	m.CheckpointWaitSeconds += other.CheckpointWaitSeconds
	m.StagesReplayed += other.StagesReplayed
	m.CorruptionsInjected += other.CorruptionsInjected
	m.CorruptionsDetected += other.CorruptionsDetected
	m.WireBytes += other.WireBytes
	m.WireFrames += other.WireFrames
	m.NetDropsInjected += other.NetDropsInjected
	m.NetDelaysInjected += other.NetDelaysInjected
	m.SubnormalsFlushed += other.SubnormalsFlushed
	if other.Stages > m.Stages {
		m.Stages = other.Stages
	}
	byStage := make(map[int]int, len(m.PerStage))
	for i, s := range m.PerStage {
		byStage[s.Stage] = i
	}
	for _, s := range other.PerStage {
		i, ok := byStage[s.Stage]
		if !ok {
			m.PerStage = append(m.PerStage, s)
			byStage[s.Stage] = len(m.PerStage) - 1
			continue
		}
		dst := &m.PerStage[i]
		dst.WallSeconds += s.WallSeconds
		dst.OpSeconds += s.OpSeconds
		dst.ComputeSeconds += s.ComputeSeconds
		dst.NetworkSeconds += s.NetworkSeconds
		dst.CommBytes += s.CommBytes
		dst.CommEvents += s.CommEvents
		dst.FLOPs += s.FLOPs
	}
	sort.Slice(m.PerStage, func(i, j int) bool { return m.PerStage[i].Stage < m.PerStage[j].Stage })
}

// varState is a session variable: its instances per scheme.
type varState struct {
	rows, cols int
	instances  map[dep.Scheme]*dist.DistMatrix
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
	// planCache memoizes generated plans per program: iterative algorithms
	// run the same Program object every iteration, and once the session
	// schemes stabilize the plan is identical. Keyed by the Program pointer
	// and validated against a signature of the session schemes the program
	// reads.
	planCache map[*expr.Program]planCacheEntry
	cacheHits int
	cacheMiss int
	// shared, when set, is a plan cache shared across engines: keyed by the
	// full plan signature (program structure + session signature), it lets
	// this engine reuse plans generated by other engines for structurally
	// identical programs — the cross-job layer of the serve subsystem.
	shared *PlanCache
	// tracer and metrics observe execution when set (SetObserver); both are
	// valid nil (no-op) receivers.
	tracer  *obs.Tracer
	metrics *obs.Registry
	// rewriter, when set, canonicalizes every program through the algebraic
	// rewrite pass before planning and execution (SetRewriter); rewriteCache
	// memoizes its output per Program pointer, mirroring planCache.
	rewriter     *rewrite.Rewriter
	rewriteCache map[*expr.Program]*rewrite.Result
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
	// stage runs the operators of the current stage (runOps).
	stage stageRun
}

type planCacheEntry struct {
	sig  string
	plan *core.Plan
}

// PlanCacheStats reports how many Run calls reused a cached plan versus
// regenerated one. Plans served by a shared cache (SetSharedPlanCache) count
// as hits: the engine did not regenerate them.
func (e *Engine) PlanCacheStats() (hits, misses int) { return e.cacheHits, e.cacheMiss }

// SetSharedPlanCache attaches a plan cache shared with other engines (nil
// detaches). On a local plan-cache miss the engine consults it by full plan
// signature before regenerating, and publishes freshly generated plans into
// it. The cache is safe for concurrent use, so one PlanCache may back a whole
// pool of engines.
func (e *Engine) SetSharedPlanCache(pc *PlanCache) { e.shared = pc }

// Reset clears the session for reuse by an unrelated job: bound variables,
// driver scalars, the pointer-keyed plan cache (finished jobs' Program
// objects would otherwise pin plans forever), and the base context installed
// by the previous owner. The cluster, observers, ablation flags, checkpoint
// configuration and the shared plan cache survive — they are the engine's
// infrastructure, not session state. Every result block the session held
// and no caller was handed goes back to the block pool for the next job.
func (e *Engine) Reset() {
	e.vars = make(map[string]*varState)
	e.scalars = make(map[string]float64)
	e.planCache = nil
	e.rewriteCache = nil
	e.baseCtx = nil
	e.reclaim()
}

// reclaim returns to the block pool every result block it owns that no
// session variable reaches — any instance, views included, matched by block
// identity, so grids shared by partitions and views and blocks an in-place
// operator wrote are kept while anything holds them. It runs after a run has
// returned (no snapshot is in flight then, execute joins the writer on every
// path) and on Reset; a block a caller holds was disowned by Grid.
func (e *Engine) reclaim() {
	if e.pool.Owned() == 0 {
		return
	}
	live := make(map[*matrix.DenseBlock]bool)
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
}

// SetRewriter attaches (or with nil, detaches) the algebraic rewrite pass:
// every program handed to Run/RunCtx/Plan is rewritten first, and planning,
// caching and execution all see the rewritten program. Changing the rewriter
// invalidates cached plans and rewrites.
func (e *Engine) SetRewriter(r *rewrite.Rewriter) {
	e.rewriter = r
	e.planCache = nil
	e.rewriteCache = nil
}

// Rewriter returns the attached rewriter (nil when rewriting is off).
func (e *Engine) Rewriter() *rewrite.Rewriter { return e.rewriter }

// rewritten resolves the program the engine actually plans and executes:
// the input itself without a rewriter, otherwise the memoized output of the
// rewrite pass. On a fresh rewrite it records the decisions as span events
// under an "engine/rewrite" span and feeds the rewrite counters. A rewrite
// failure (a rewriter bug, not a user error) falls back to the unrewritten
// program rather than failing the run.
func (e *Engine) rewritten(p *expr.Program) *expr.Program {
	if e.rewriter == nil {
		return p
	}
	if res, ok := e.rewriteCache[p]; ok {
		return res.Program
	}
	span := e.tracer.Start("engine", "rewrite", e.tracer.Scope())
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
			e.metrics.Counter("rewrite.applied").Inc()
			e.metrics.Counter("rewrite.applied." + d.Rule).Inc()
		}
		e.metrics.Counter("rewrite.programs").Inc()
		e.metrics.Counter("rewrite.predicted.flops_saved").Add(int64(res.FLOPsSaved()))
		e.metrics.Counter("rewrite.predicted.bytes_saved").Add(res.BytesSaved())
		e.tracer.End(span,
			obs.Int64("applied", int64(len(res.Decisions))),
			obs.Float64("cost_before", res.CostBefore),
			obs.Float64("cost_after", res.CostAfter))
	}
	if e.rewriteCache == nil {
		e.rewriteCache = make(map[*expr.Program]*rewrite.Result)
	}
	e.rewriteCache[p] = res
	return res.Program
}

// planSignature captures everything outside the program that plan
// generation depends on: the cached schemes of the variables the program
// reads, the worker count, the ablation flags, and whether (and under which
// rule version) the rewrite pass canonicalized the program. Nothing about the
// host or the kernels enters it: a plan is a function of the program, the
// workers and the cached schemes.
func (e *Engine) planSignature(p *expr.Program) string {
	rw := 0
	if e.rewriter != nil {
		rw = rewrite.Version
	}
	var b strings.Builder
	fmt.Fprintf(&b, "w=%d;pu=%v;ra=%v;cp=%v;rw=%d;",
		e.cluster.Workers(), e.disablePullUp, e.disableReassign, e.disableCPMM, rw)
	for _, n := range p.Nodes() {
		if n.Kind != expr.KindLoad && n.Kind != expr.KindVar {
			continue
		}
		fmt.Fprintf(&b, "%s:", n.Name)
		for _, s := range e.VarSchemes(n.Name) {
			b.WriteString(s.String())
		}
		b.WriteByte(';')
	}
	return b.String()
}

// SetAblation toggles the planner heuristics for ablation studies: Pull-Up
// Broadcast, Re-assignment, and the CPMM strategy. Changing the flags
// invalidates cached plans.
func (e *Engine) SetAblation(disablePullUp, disableReassign, disableCPMM bool) {
	e.disablePullUp = disablePullUp
	e.disableReassign = disableReassign
	e.disableCPMM = disableCPMM
	e.planCache = nil
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
		c.SetTransport(transport.NewTCP(transport.Config{
			Addrs:                cfg.WorkerAddrs,
			DialTimeoutSec:       cfg.DialTimeoutSec,
			IOTimeoutSec:         cfg.IOTimeoutSec,
			HeartbeatIntervalSec: cfg.HeartbeatIntervalSec,
			HeartbeatMisses:      cfg.HeartbeatMisses,
		}))
	}
	return &Engine{
		planner:   planner,
		cluster:   c,
		blockSize: blockSize,
		vars:      make(map[string]*varState),
		scalars:   make(map[string]float64),
		pool:      sched.NewBlockPool(),
	}
}

// Close releases the engine's transport resources (TCP connections and
// heartbeat loops when worker addresses are configured; a no-op for the
// in-process data plane).
func (e *Engine) Close() error {
	e.joinSnapshot()
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
	e.cluster.SetObserver(t, m)
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

// planConfig builds the planner view of the current session.
func (e *Engine) planConfig() core.Config {
	vars := make(map[string][]dep.Scheme, len(e.vars))
	for name := range e.vars {
		schemes := e.VarSchemes(name)
		concrete := schemes[:0:0]
		for _, s := range schemes {
			if s != dep.SchemeNone {
				concrete = append(concrete, s)
			}
		}
		if len(concrete) > 0 {
			vars[name] = concrete
		}
		// Variables cached only hash-partitioned are left out: the planner
		// treats unknown variables as hash-partitioned already.
	}
	return core.Config{
		Workers:         e.cluster.Workers(),
		Vars:            vars,
		DisablePullUp:   e.disablePullUp,
		DisableReassign: e.disableReassign,
		DisableCPMM:     e.disableCPMM,
	}
}

// Run plans and executes a program against the session. params provides the
// values of named scalar parameters (expr.ScalarParam). On success the
// program's assignments update the session variables and its scalar outputs
// update the session scalars.
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
	// everything downstream — plan generation, both plan caches and
	// execution — sees the rewritten program. Caches stay keyed by the
	// caller's Program pointer.
	rp := e.rewritten(p)
	sig := e.planSignature(rp)
	var plan *core.Plan
	source := "miss"
	if entry, ok := e.planCache[p]; ok && entry.sig == sig {
		plan = entry.plan
		e.cacheHits++
		source = "hit"
		e.metrics.Counter("plan.cache.hits").Inc()
	} else {
		// On a local miss, try the shared cache before regenerating: another
		// engine may have planned a structurally identical program already.
		// The shared key uses the canonical *rewritten* program, so
		// equivalent-but-differently-written jobs converge on one entry.
		fullSig := ""
		if e.shared != nil {
			fullSig = ProgramSignature(rp) + "|" + sig
			plan = e.shared.Get(fullSig)
		}
		if plan != nil {
			e.cacheHits++
			source = "shared"
			e.metrics.Counter("plan.cache.hits").Inc()
			e.metrics.Counter("plan.cache.shared.hits").Inc()
		} else {
			var err error
			plan, err = e.generate(rp)
			if err != nil {
				return Metrics{}, err
			}
			if err := plan.Check(); err != nil {
				return Metrics{}, err
			}
			e.cacheMiss++
			e.metrics.Counter("plan.cache.misses").Inc()
			if e.shared != nil {
				e.shared.Put(fullSig, plan)
				e.metrics.Counter("plan.cache.shared.misses").Inc()
			}
		}
		if e.planCache == nil {
			e.planCache = make(map[*expr.Program]planCacheEntry)
		}
		e.planCache[p] = planCacheEntry{sig: sig, plan: plan}
	}
	before := e.cluster.Net().Snapshot()
	// The run span parents under the tracer's current scope, so a caller that
	// wraps runs in its own span (the serve job service's per-job root span)
	// gets the engine's whole stage tree under it; with no scope set the run
	// stays a root span as before.
	runSpan := e.tracer.Start("engine", "run", e.tracer.Scope(),
		obs.String("planner", e.planner.String()),
		obs.Int64("stages", int64(plan.Stages)),
		obs.Int64("ops", int64(len(plan.Ops))),
		obs.String("plan_cache", source))
	prevScope := e.tracer.SetScope(runSpan)
	start := time.Now()
	stats, err := e.execute(ctx, plan, sig, params)
	e.tracer.SetScope(prevScope)
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
	wall := time.Since(start).Seconds()
	after := e.cluster.Net().Snapshot()
	m = e.metricsDelta(before, after, wall, plan.Stages, stats)
	e.tracer.End(runSpan, obs.Int64("comm_bytes", m.CommBytes))
	return m, nil
}

// Plan returns the plan the engine would execute for a program against the
// current session, without executing it (the dmacplan explain path). Like
// Run, it plans the rewritten program when a rewriter is attached.
func (e *Engine) Plan(p *expr.Program) (*core.Plan, error) {
	return e.generate(e.rewritten(p))
}

// generate plans a (rewritten) program against the session with the
// engine's planner: the one place the three planners part ways.
func (e *Engine) generate(rp *expr.Program) (*core.Plan, error) {
	switch e.planner {
	case DMac:
		return core.Generate(rp, e.planConfig())
	case SystemMLS:
		return core.GenerateSystemMLS(rp, e.planConfig())
	case Local:
		return core.GenerateLocal(rp)
	default:
		return nil, fmt.Errorf("engine: unknown planner %d", e.planner)
	}
}

func (e *Engine) metricsDelta(before, after dist.Snapshot, wall float64, stages int, stats execStats) Metrics {
	cfg := e.cluster.Config()
	bytes := after.Bytes - before.Bytes
	events := after.CommEvents - before.CommEvents
	flops := after.FLOPs - before.FLOPs
	stall := after.StallSec - before.StallSec
	model := cfg.Rates.ComputeSec(flops, cfg.Workers*cfg.LocalParallelism, cfg.MaxSlowdown()) +
		cfg.Rates.NetworkSec(bytes, events) + stall
	return Metrics{
		WallSeconds:   wall,
		ModelSeconds:  model,
		CommBytes:     bytes,
		CommEvents:    events,
		Broadcasts:    after.Broadcasts - before.Broadcasts,
		Shuffles:      after.Shuffles - before.Shuffles,
		FLOPs:         flops,
		Stages:        stages,
		PerStage:      stats.perStage,
		Retries:       after.Retries - before.Retries,
		RecoveryBytes: after.RecoveryBytes - before.RecoveryBytes,

		CheckpointBytes:       stats.checkpointBytes,
		CheckpointSeconds:     stats.checkpointSeconds,
		CheckpointWaitSeconds: stats.checkpointWaitSeconds,
		StagesReplayed:        stats.stagesReplayed,
		CorruptionsInjected:   after.CorruptionsInjected - before.CorruptionsInjected,
		CorruptionsDetected:   after.CorruptionsDetected - before.CorruptionsDetected,
		WireBytes:             after.WireBytes - before.WireBytes,
		WireFrames:            after.WireFrames - before.WireFrames,
		NetDropsInjected:      after.NetDropsInjected - before.NetDropsInjected,
		NetDelaysInjected:     after.NetDelaysInjected - before.NetDelaysInjected,
	}
}
