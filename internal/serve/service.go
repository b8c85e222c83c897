package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dmac/internal/autoscale"
	"dmac/internal/dist"
	"dmac/internal/engine"
	"dmac/internal/matrix"
	"dmac/internal/obs"
	"dmac/internal/rewrite"
	"dmac/internal/workload"
)

// Options configures a Service. Zero values pick serving-appropriate
// defaults.
type Options struct {
	// Planner, Cluster and BlockSize configure every engine slot.
	Planner   engine.Planner
	Cluster   dist.Config
	BlockSize int
	// Slots is the initial engine-pool size: the maximum number of
	// concurrently running jobs until a Resize (default 2). With Autoscale
	// set it is clamped into [Autoscale.Min, Autoscale.Max].
	Slots int
	// Autoscale, when non-nil, attaches the model-based elastic autoscaler:
	// a reconciliation loop that resizes the pool within the configured
	// bounds against the latency target. See internal/autoscale.
	Autoscale *autoscale.Config
	// QueueCapacity bounds the admission queue across all tenants
	// (default 16). Submissions beyond it are rejected, never buffered.
	QueueCapacity int
	// DefaultQuota applies to tenants absent from Quotas; its own zero
	// fields fall back to built-in defaults.
	DefaultQuota TenantQuota
	Quotas       map[string]TenantQuota
	// DefaultDeadline bounds a job's run time when its spec doesn't
	// (default 30s).
	DefaultDeadline time.Duration
	// Registry resolves workload names (default workload.DefaultRegistry).
	Registry *workload.Registry
	// Metrics receives service and engine metrics (default fresh registry).
	Metrics *obs.Registry
	// PlanCacheCap bounds the cross-engine shared plan cache (default 128).
	PlanCacheCap int
	// JobCacheBytes bounds the built-input cache (default 64 MiB).
	JobCacheBytes int64
	// CheckpointDir, when set, gives every engine slot a per-stage
	// checkpoint under CheckpointDir/slot-N: a job that loses a worker
	// restores its newest snapshot instead of replaying its lineage.
	// Snapshots are written beside the stages that follow them and finished
	// before the run returns, cancelled or not, so a forced shutdown leaves
	// each interrupted job's newest snapshot complete on disk. They are the
	// running job's restore points, not exports — values the session still
	// holds are named in them, not written — and the slot removes them when
	// its next run (or, after a restart, its engine) begins.
	CheckpointDir string
	// DisableRewrite turns off the algebraic rewrite pass that every engine
	// slot otherwise runs before planning (escape hatch for A/B runs and
	// debugging suspect plans).
	DisableRewrite bool
	// Logger receives structured job-lifecycle and request logs (default: a
	// discarding logger, so embedded services and tests stay quiet).
	Logger *slog.Logger
	// SLO is the default per-tenant service-level objective; SLOs overrides
	// it for named tenants. Zero fields fall back to built-in defaults
	// (objective 0.99, latency 5s).
	SLO  SLOConfig
	SLOs map[string]SLOConfig
	// FlightRecorderJobs bounds the always-on trace ring: how many recent
	// jobs keep their full span tree queryable via JobTrace (default 256).
	FlightRecorderJobs int
}

func (o Options) withDefaults() Options {
	if o.BlockSize <= 0 {
		o.BlockSize = 8
	}
	if o.Slots <= 0 {
		o.Slots = 2
	}
	if o.QueueCapacity <= 0 {
		o.QueueCapacity = 16
	}
	if o.DefaultDeadline <= 0 {
		o.DefaultDeadline = 30 * time.Second
	}
	if o.Registry == nil {
		o.Registry = workload.DefaultRegistry()
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

// engineSlot is one reusable engine plus its private tracer (a tracer's
// active scope is a single slot of state, so concurrent jobs must not share
// one). A draining slot is retiring from a shrink: it finishes its current
// job — never canceled mid-run — and is removed and closed at the terminal
// transition instead of returning to the free list.
type engineSlot struct {
	id       int
	e        *engine.Engine
	tracer   *obs.Tracer
	draining bool
}

// Service is the multi-tenant job service. See the package comment for the
// life of a job. All methods are safe for concurrent use.
type Service struct {
	opts     Options
	shared   *engine.PlanCache
	jobCache *jobCache
	start    time.Time
	logger   *slog.Logger
	slo      *sloTracker
	flight   *flightRecorder

	scaler *autoscale.Controller

	mu        sync.Mutex
	cond      *sync.Cond
	q         queue
	jobs      map[string]*job
	tenants   map[string]*tenantState
	freeSlots []*engineSlot
	slots     []*engineSlot // all live slots, draining included
	running   int
	nextID    int64
	draining  bool
	closed    bool

	// Dynamic-pool state. desiredSlots is the Resize target: the dispatcher
	// constructs slots lazily up to it when runnable work is queued.
	// drainingSlots counts the busy slots marked for retirement.
	desiredSlots  int
	drainingSlots int
	nextSlotID    int

	// Capacity-model calibration, maintained at every terminal transition:
	// runSecEWMA is the mean per-job run time, bytesPerSecEWMA the rate one
	// slot retires the planner's estimated bytes (linking the admission
	// price to wall time). queuedEstBytes is the model-priced backlog.
	runSecEWMA      float64
	bytesPerSecEWMA float64
	queuedEstBytes  int64

	wg             sync.WaitGroup
	dispatcherDone chan struct{}

	// metrics handles (registry-owned, concurrency-safe)
	gQueueDepth  *obs.Gauge
	gRunning     *obs.Gauge
	hQueueWait   *obs.Histogram
	hRunSeconds  *obs.Histogram
	cSubmitted   *obs.Counter
	cCompleted   *obs.Counter
	cFailed      *obs.Counter
	cCanceled    *obs.Counter
	cRejected    *obs.Counter
	rejectedByRC map[string]*obs.Counter
	vSlots       *obs.GaugeVec // state: total | free | draining | desired

	// labeled metric families (per-tenant exposition via /metrics)
	vSubmitted  *obs.CounterVec   // tenant, workload
	vFinished   *obs.CounterVec   // tenant, workload, state
	vRejected   *obs.CounterVec   // tenant, reason
	vQueueDepth *obs.GaugeVec     // tenant
	vRunning    *obs.GaugeVec     // tenant
	vQueueWait  *obs.HistogramVec // tenant
	vRunSeconds *obs.HistogramVec // tenant, workload
	vCommBytes  *obs.CounterVec   // tenant
	vFLOPs      *obs.CounterVec   // tenant
	vJobGFLOPS  *obs.HistogramVec // tenant
}

var latencyBounds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// NewService builds the engine pool and starts the dispatcher (and, with
// Options.Autoscale set, the autoscale controller).
func NewService(opts Options) (*Service, error) {
	opts = opts.withDefaults()
	if opts.Autoscale != nil {
		cfg := *opts.Autoscale
		if cfg.Min <= 0 {
			cfg.Min = 1
		}
		if cfg.Max < cfg.Min {
			cfg.Max = cfg.Min
		}
		if opts.Slots < cfg.Min {
			opts.Slots = cfg.Min
		}
		if opts.Slots > cfg.Max {
			opts.Slots = cfg.Max
		}
		opts.Autoscale = &cfg
	}
	s := &Service{
		opts:           opts,
		shared:         engine.NewPlanCache(opts.PlanCacheCap),
		jobCache:       newJobCache(opts.JobCacheBytes),
		start:          time.Now(),
		logger:         opts.Logger,
		slo:            newSLOTracker(opts.SLO, opts.SLOs),
		flight:         newFlightRecorder(opts.FlightRecorderJobs),
		jobs:           make(map[string]*job),
		tenants:        make(map[string]*tenantState),
		dispatcherDone: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	m := opts.Metrics
	s.gQueueDepth = m.Gauge("serve.queue.depth")
	s.gRunning = m.Gauge("serve.jobs.running")
	s.hQueueWait = m.Histogram("serve.queue.wait.seconds", latencyBounds)
	s.hRunSeconds = m.Histogram("serve.job.run.seconds", latencyBounds)
	s.cSubmitted = m.Counter("serve.jobs.submitted")
	s.cCompleted = m.Counter("serve.jobs.completed")
	s.cFailed = m.Counter("serve.jobs.failed")
	s.cCanceled = m.Counter("serve.jobs.canceled")
	s.cRejected = m.Counter("serve.admit.rejected")
	s.rejectedByRC = map[string]*obs.Counter{
		"queue_full":   m.Counter("serve.admit.rejected.queue_full"),
		"tenant_quota": m.Counter("serve.admit.rejected.tenant_quota"),
		"draining":     m.Counter("serve.admit.rejected.draining"),
	}
	s.vSubmitted = m.CounterVec("serve.tenant.jobs.submitted", "tenant", "workload")
	s.vFinished = m.CounterVec("serve.tenant.jobs.finished", "tenant", "workload", "state")
	s.vRejected = m.CounterVec("serve.tenant.rejected", "tenant", "reason")
	s.vQueueDepth = m.GaugeVec("serve.tenant.queue.depth", "tenant")
	s.vRunning = m.GaugeVec("serve.tenant.jobs.running", "tenant")
	s.vQueueWait = m.HistogramVec("serve.tenant.queue.wait.seconds", latencyBounds, "tenant")
	s.vRunSeconds = m.HistogramVec("serve.tenant.job.run.seconds", latencyBounds, "tenant", "workload")
	s.vCommBytes = m.CounterVec("serve.tenant.comm.bytes", "tenant")
	s.vFLOPs = m.CounterVec("serve.tenant.flops", "tenant")
	s.vJobGFLOPS = m.HistogramVec("serve.tenant.job.gflops", obs.GFLOPSBuckets, "tenant")
	s.vSlots = m.GaugeVec("serve.slots", "state")

	s.desiredSlots = opts.Slots
	for i := 0; i < opts.Slots; i++ {
		slot, err := s.newSlot()
		if err != nil {
			return nil, err
		}
		s.slots = append(s.slots, slot)
		s.freeSlots = append(s.freeSlots, slot)
	}
	s.slotGaugesLocked()
	if opts.Autoscale != nil {
		s.scaler = autoscale.New(*opts.Autoscale, s, m)
		s.scaler.Start()
	}
	go s.dispatcher()
	return s, nil
}

// newSlot constructs one engine slot with a fresh monotonic ID (so a slot
// grown after a shrink never inherits a retired slot's checkpoint directory).
// Called under the service mutex after construction; during NewService the
// service is not yet shared.
func (s *Service) newSlot() (*engineSlot, error) {
	id := s.nextSlotID
	s.nextSlotID++
	e := engine.New(s.opts.Planner, s.opts.Cluster, s.opts.BlockSize)
	tr := obs.NewTracer()
	e.SetObserver(tr, s.opts.Metrics)
	e.SetSharedPlanCache(s.shared)
	if !s.opts.DisableRewrite {
		e.SetRewriter(rewrite.New())
	}
	if s.opts.CheckpointDir != "" {
		dir := filepath.Join(s.opts.CheckpointDir, fmt.Sprintf("slot-%d", id))
		if err := e.SetCheckpoint(dir, engine.CheckpointPolicy{Interval: 1}); err != nil {
			e.Close()
			return nil, fmt.Errorf("serve: slot %d checkpoint: %w", id, err)
		}
	}
	return &engineSlot{id: id, e: e, tracer: tr}, nil
}

// activeSlotsLocked is the pool capacity ignoring slots already draining
// away.
func (s *Service) activeSlotsLocked() int { return len(s.slots) - s.drainingSlots }

// slotGaugesLocked refreshes the serve.slots{state} gauge family after any
// pool-shape change.
func (s *Service) slotGaugesLocked() {
	s.vSlots.With("total").Set(float64(len(s.slots)))
	s.vSlots.With("free").Set(float64(len(s.freeSlots)))
	s.vSlots.With("draining").Set(float64(s.drainingSlots))
	s.vSlots.With("desired").Set(float64(s.desiredSlots))
}

// Registry returns the service's workload registry.
func (s *Service) Registry() *workload.Registry { return s.opts.Registry }

// Tracers returns the per-slot tracers (for trace export and tests).
func (s *Service) Tracers() []*obs.Tracer {
	s.mu.Lock()
	defer s.mu.Unlock()
	trs := make([]*obs.Tracer, len(s.slots))
	for i, sl := range s.slots {
		trs[i] = sl.tracer
	}
	return trs
}

func (s *Service) tenant(name string) *tenantState {
	ts, ok := s.tenants[name]
	if !ok {
		q, has := s.opts.Quotas[name]
		if !has {
			q = s.opts.DefaultQuota
		}
		ts = &tenantState{quota: q.withDefaults(s.opts.DefaultQuota)}
		s.tenants[name] = ts
	}
	return ts
}

func (s *Service) rejectLocked(tenant string, ts *tenantState, reason string, r *Rejection) error {
	s.cRejected.Inc()
	if c, ok := s.rejectedByRC[reason]; ok {
		c.Inc()
	}
	s.vRejected.With(tenant, reason).Inc()
	if ts != nil {
		ts.rejected++
	}
	s.logger.Warn("job rejected",
		"tenant", tenant, "reason", reason, "detail", r.Reason,
		"retryable", r.Retryable, "retry_after_sec", r.RetryAfter.Seconds())
	return r
}

// tenantGaugesLocked refreshes the tenant's live queue/running gauges.
func (s *Service) tenantGaugesLocked(tenant string, ts *tenantState) {
	s.vQueueDepth.With(tenant).Set(float64(ts.queued))
	s.vRunning.With(tenant).Set(float64(ts.running))
}

// Submit prices the job, applies admission control, and enqueues it. The
// returned status snapshot carries the assigned job ID. Admission refusals
// are *Rejection errors; anything else is a validation failure.
func (s *Service) Submit(spec JobSpec) (JobStatus, error) {
	if spec.Tenant == "" {
		return JobStatus{}, fmt.Errorf("serve: job has no tenant")
	}
	if spec.Priority < PriorityHigh {
		spec.Priority = PriorityHigh
	}
	if spec.Priority > PriorityLow {
		spec.Priority = PriorityLow
	}
	built, err := s.buildSpec(spec)
	if err != nil {
		return JobStatus{}, err
	}
	est := built.EstimatedBytes(s.opts.BlockSize)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobStatus{}, fmt.Errorf("serve: service stopped")
	}
	ts := s.tenant(spec.Tenant)
	if s.draining {
		return JobStatus{}, s.rejectLocked(spec.Tenant, ts, "draining",
			&Rejection{Reason: "service draining", Retryable: false})
	}
	if est > ts.quota.MaxBytes {
		return JobStatus{}, s.rejectLocked(spec.Tenant, ts, "tenant_quota", &Rejection{
			Reason: fmt.Sprintf("job needs %d estimated bytes, tenant quota is %d", est, ts.quota.MaxBytes),
		})
	}
	if ts.queued >= ts.quota.MaxQueued {
		return JobStatus{}, s.rejectLocked(spec.Tenant, ts, "tenant_quota", &Rejection{
			Reason:     fmt.Sprintf("tenant has %d jobs queued (quota %d)", ts.queued, ts.quota.MaxQueued),
			RetryAfter: s.retryAfterLocked(),
			Retryable:  true,
		})
	}
	if s.q.size >= s.opts.QueueCapacity {
		return JobStatus{}, s.rejectLocked(spec.Tenant, ts, "queue_full", &Rejection{
			Reason:     fmt.Sprintf("admission queue full (%d)", s.q.size),
			RetryAfter: s.retryAfterLocked(),
			Retryable:  true,
		})
	}

	s.nextID++
	j := &job{
		id:        fmt.Sprintf("job-%06d", s.nextID),
		spec:      spec,
		built:     built,
		estBytes:  est,
		priority:  spec.Priority,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.q.push(j)
	s.queuedEstBytes += j.estBytes
	ts.queued++
	ts.submitted++
	s.cSubmitted.Inc()
	s.vSubmitted.With(spec.Tenant, spec.Workload).Inc()
	s.gQueueDepth.Set(float64(s.q.size))
	s.tenantGaugesLocked(spec.Tenant, ts)
	s.logger.Info("job submitted",
		"job", j.id, "tenant", spec.Tenant, "workload", spec.Workload,
		"priority", j.priority, "est_bytes", est, "queue_depth", s.q.size)
	s.cond.Broadcast()
	return j.status(), nil
}

// buildSpec materializes the job's inputs and program: registry jobs resolve
// through the built-input cache, programmatic jobs are validated and wrapped.
func (s *Service) buildSpec(spec JobSpec) (*workload.BuiltJob, error) {
	if spec.Workload != "" {
		key := jobCacheKey(spec.Workload, s.opts.BlockSize, spec.Params)
		if b := s.jobCache.get(key); b != nil {
			return b, nil
		}
		b, err := s.opts.Registry.Build(spec.Workload, s.opts.BlockSize, spec.Params)
		if err != nil {
			return nil, err
		}
		s.jobCache.put(key, b)
		return b, nil
	}
	if spec.Program == nil {
		return nil, fmt.Errorf("serve: job names no workload and carries no program")
	}
	if err := spec.Program.Validate(); err != nil {
		return nil, fmt.Errorf("serve: invalid program: %w", err)
	}
	b := &workload.BuiltJob{
		Inputs:     spec.Inputs,
		Program:    spec.Program,
		Iterations: spec.Iterations,
		Params:     spec.Params,
		Outputs:    spec.Outputs,
		Scalars:    spec.Scalars,
	}
	if b.Iterations < 1 {
		b.Iterations = 1
	}
	if len(b.Outputs) == 0 {
		for _, a := range spec.Program.Assignments() {
			b.Outputs = append(b.Outputs, a.Name)
		}
	}
	if len(b.Scalars) == 0 {
		for _, so := range spec.Program.ScalarOuts() {
			b.Scalars = append(b.Scalars, so.Name)
		}
	}
	return b, nil
}

// dispatchableLocked reports whether capacity (a free slot, or headroom to
// lazily construct one under the desired size) and a runnable queued job
// exist right now.
func (s *Service) dispatchableLocked() bool {
	if s.q.size == 0 {
		return false
	}
	if len(s.freeSlots) == 0 && s.activeSlotsLocked() >= s.desiredSlots {
		return false
	}
	for p := range s.q.levels {
		for _, j := range s.q.levels[p] {
			if s.tenants[j.spec.Tenant].canRun(j.estBytes) {
				return true
			}
		}
	}
	return false
}

// leaseSlotLocked returns a slot for the next runnable job: a free one, or —
// when the pool is below its desired size — a lazily constructed one. This
// is the grow half of Resize: declaring a larger pool is O(1) and engines
// only materialize when runnable work actually needs them.
func (s *Service) leaseSlotLocked() *engineSlot {
	if n := len(s.freeSlots); n > 0 {
		slot := s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
		return slot
	}
	slot, err := s.newSlot()
	if err != nil {
		// Construction failed (e.g. checkpoint directory): stop growing at
		// the size that worked rather than retrying every dispatch.
		s.logger.Error("slot construction failed, pinning pool size",
			"err", err.Error(), "slots", len(s.slots))
		s.desiredSlots = s.activeSlotsLocked()
		s.slotGaugesLocked()
		return nil
	}
	s.slots = append(s.slots, slot)
	s.logger.Info("slot grown", "slot", slot.id, "slots_total", len(s.slots), "slots_desired", s.desiredSlots)
	return slot
}

// dispatcher is the single scheduling goroutine: it leases slots to runnable
// jobs in priority-then-FIFO order, skipping tenants at their quota.
func (s *Service) dispatcher() {
	defer close(s.dispatcherDone)
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for !s.closed && !s.dispatchableLocked() {
			s.cond.Wait()
		}
		if s.closed {
			return
		}
		slot := s.leaseSlotLocked()
		if slot == nil {
			continue
		}
		j := s.q.pop(func(j *job) bool {
			return s.tenants[j.spec.Tenant].canRun(j.estBytes)
		})
		ts := s.tenants[j.spec.Tenant]
		ts.queued--
		ts.running++
		ts.runningBytes += j.estBytes
		s.queuedEstBytes -= j.estBytes
		j.state = StateRunning
		j.started = time.Now()
		s.running++
		wait := j.started.Sub(j.submitted).Seconds()
		s.hQueueWait.Observe(wait)
		s.vQueueWait.With(j.spec.Tenant).Observe(wait)
		s.gQueueDepth.Set(float64(s.q.size))
		s.gRunning.Set(float64(s.running))
		s.slotGaugesLocked()
		s.tenantGaugesLocked(j.spec.Tenant, ts)
		s.logger.Info("job started",
			"job", j.id, "tenant", j.spec.Tenant, "workload", j.spec.Workload,
			"slot", slot.id, "queue_sec", wait)
		s.wg.Add(1)
		go s.runJob(j, slot)
	}
}

// runJob executes one job on a leased slot: reset the session, bind the
// built inputs, run the program for its iterations under the job context,
// and publish the terminal state. The job's root span parents every engine
// stage span emitted on the slot's tracer.
func (s *Service) runJob(j *job, slot *engineSlot) {
	defer s.wg.Done()
	deadline := j.spec.Deadline
	if deadline <= 0 {
		deadline = s.opts.DefaultDeadline
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	s.mu.Lock()
	j.cancel = cancel
	asked := j.cancelAsked
	s.mu.Unlock()
	if asked {
		cancel()
	}

	e := slot.e
	e.Reset()
	var runErr error
	for name, g := range j.built.Inputs {
		if err := e.Bind(name, g); err != nil {
			runErr = fmt.Errorf("serve: bind %s: %w", name, err)
			break
		}
	}

	root := slot.tracer.Start("serve", "job", 0,
		obs.String("job", j.id),
		obs.String("tenant", j.spec.Tenant),
		obs.String("workload", j.spec.Workload),
		obs.Int64("est_bytes", j.estBytes))
	prev := slot.tracer.SetScope(root)
	var total engine.Metrics
	iters := 0
	params := map[string]float64(j.spec.Params)
	for i := 0; runErr == nil && i < j.built.Iterations; i++ {
		m, err := e.RunCtx(ctx, j.built.Program, params)
		if err != nil {
			runErr = err
			break
		}
		total.Add(m)
		iters++
	}
	slot.tracer.SetScope(prev)

	state := StateDone
	var res *Result
	if runErr == nil {
		res = &Result{Grids: make(map[string]*matrix.Grid), Scalars: make(map[string]float64)}
		for _, name := range j.built.Outputs {
			g, ok := e.Grid(name)
			if !ok {
				runErr = fmt.Errorf("serve: job produced no output %q", name)
				break
			}
			res.Grids[name] = g
		}
		for _, name := range j.built.Scalars {
			if v, ok := e.Scalar(name); ok {
				res.Scalars[name] = v
			}
		}
	}
	if runErr != nil {
		res = nil
		state = StateFailed
		if errors.Is(runErr, context.Canceled) {
			state = StateCanceled
		}
	}
	slot.tracer.End(root, obs.String("state", string(state)), obs.Int64("iterations", int64(iters)))

	// Drain the slot tracer into the flight recorder: the slot ran only this
	// job since the last drain, so these spans are exactly its tree. Draining
	// per job also keeps a long-lived slot's tracer memory bounded.
	s.flight.record(j.id, slot.tracer.Spans())
	slot.tracer.Reset()

	s.finishJob(j, slot, state, runErr, res, total, iters)
}

// finishJob publishes the terminal state, returns the slot to the pool, and
// settles the tenant's accounting and the service metrics.
func (s *Service) finishJob(j *job, slot *engineSlot, state State, runErr error, res *Result, total engine.Metrics, iters int) {
	s.mu.Lock()
	ts := s.tenants[j.spec.Tenant]
	ts.running--
	ts.runningBytes -= j.estBytes
	ts.completed++
	j.state = state
	j.err = runErr
	j.result = res
	j.metrics = total
	j.iterations = iters
	j.finished = time.Now()
	j.releaseInputs()
	switch state {
	case StateDone:
		s.cCompleted.Inc()
	case StateCanceled:
		j.canceled = true
		s.cCanceled.Inc()
	default:
		if errors.Is(runErr, context.DeadlineExceeded) {
			j.deadlined = true
		}
		var wf *dist.WorkerFailure
		if errors.As(runErr, &wf) {
			j.faulted = true
		}
		s.cFailed.Inc()
	}
	s.running--
	var toClose *engineSlot
	if slot.draining {
		// The drain protocol's last step: the slot finished (or failed) its
		// job untouched by the shrink and only now leaves the pool.
		s.drainingSlots--
		s.removeSlotLocked(slot)
		toClose = slot
		s.logger.Info("slot retired after drain", "slot", slot.id, "slots_total", len(s.slots))
	} else {
		s.freeSlots = append(s.freeSlots, slot)
	}
	s.gRunning.Set(float64(s.running))
	s.slotGaugesLocked()
	runSec := j.finished.Sub(j.started).Seconds()
	// Calibrate the capacity model: the observed service time and the rate
	// this job retired its admission price (estimated bytes per second).
	// New evidence at 0.3 weight smooths single-job noise while tracking a
	// workload-mix shift within a handful of completions.
	if runSec > 0 {
		if s.runSecEWMA == 0 {
			s.runSecEWMA = runSec
		} else {
			s.runSecEWMA = 0.3*runSec + 0.7*s.runSecEWMA
		}
		if bps := float64(j.estBytes) / runSec; bps > 0 {
			if s.bytesPerSecEWMA == 0 {
				s.bytesPerSecEWMA = bps
			} else {
				s.bytesPerSecEWMA = 0.3*bps + 0.7*s.bytesPerSecEWMA
			}
		}
	}
	s.hRunSeconds.Observe(runSec)
	s.vFinished.With(j.spec.Tenant, j.spec.Workload, string(state)).Inc()
	s.vRunSeconds.With(j.spec.Tenant, j.spec.Workload).Observe(runSec)
	s.vCommBytes.With(j.spec.Tenant).Add(total.CommBytes)
	s.vFLOPs.With(j.spec.Tenant).Add(int64(total.FLOPs))
	if runSec > 0 && total.FLOPs > 0 {
		s.vJobGFLOPS.With(j.spec.Tenant).Observe(total.FLOPs / runSec / 1e9)
	}
	s.tenantGaugesLocked(j.spec.Tenant, ts)
	latency := j.finished.Sub(j.submitted).Seconds()
	s.cond.Broadcast()
	s.mu.Unlock()
	if toClose != nil {
		toClose.e.Close()
	}
	// Canceled jobs are client decisions, not service failures; only done and
	// failed jobs consume SLO budget.
	if state != StateCanceled {
		s.slo.record(j.spec.Tenant, latency, state == StateFailed)
	}
	logAttrs := []any{
		"job", j.id, "tenant", j.spec.Tenant, "workload", j.spec.Workload,
		"state", string(state), "run_sec", runSec, "latency_sec", latency,
		"iterations", iters, "comm_bytes", total.CommBytes, "flops", total.FLOPs,
	}
	if runErr != nil {
		logAttrs = append(logAttrs, "error", runErr.Error())
		s.logger.Warn("job finished", logAttrs...)
	} else {
		s.logger.Info("job finished", logAttrs...)
	}
	close(j.done)
}

// removeSlotLocked deletes a slot from the live pool (it must not be on the
// free list). The caller closes the engine outside the service mutex.
func (s *Service) removeSlotLocked(slot *engineSlot) {
	for i, sl := range s.slots {
		if sl == slot {
			s.slots = append(s.slots[:i], s.slots[i+1:]...)
			return
		}
	}
}

// Resize sets the engine-pool size to n. Growing is lazy: the desired size
// rises immediately and the dispatcher constructs engines only when runnable
// work needs them (a pending grow also shrinks the Retry-After hint quota
// rejections advertise). Shrinking is graceful: free slots close immediately
// and busy slots are marked draining — each finishes (or checkpoint-flushes)
// its current job, is never canceled by the resize, and leaves the pool only
// at its terminal transition. A later grow reclaims draining slots before
// constructing new ones. Resize is safe to call concurrently with Submit,
// Cancel and Stop; resizing a stopped or stopping service is an error.
func (s *Service) Resize(n int) error {
	if n < 1 {
		return fmt.Errorf("serve: resize to %d slots (minimum 1)", n)
	}
	var toClose []*engineSlot
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return fmt.Errorf("serve: resize on a stopping service")
	}
	from := s.activeSlotsLocked()
	s.desiredSlots = n
	if n >= from {
		// Grow: reclaim draining slots first — their engines are warm and
		// possibly mid-job; undraining is free — then leave the rest to
		// lazy construction.
		for _, sl := range s.slots {
			if from >= n {
				break
			}
			if sl.draining {
				sl.draining = false
				s.drainingSlots--
				from++
			}
		}
		s.cond.Broadcast()
	} else {
		excess := from - n
		// Free slots retire immediately: nothing is running on them.
		for excess > 0 && len(s.freeSlots) > 0 {
			sl := s.freeSlots[len(s.freeSlots)-1]
			s.freeSlots = s.freeSlots[:len(s.freeSlots)-1]
			s.removeSlotLocked(sl)
			toClose = append(toClose, sl)
			excess--
		}
		// Any remaining excess is busy (the free list is empty): mark slots
		// draining, newest first. They finish their jobs untouched.
		for i := len(s.slots) - 1; i >= 0 && excess > 0; i-- {
			if sl := s.slots[i]; !sl.draining {
				sl.draining = true
				s.drainingSlots++
				excess--
			}
		}
	}
	s.slotGaugesLocked()
	s.logger.Info("pool resized", "desired", n,
		"slots_total", len(s.slots), "slots_free", len(s.freeSlots), "slots_draining", s.drainingSlots)
	s.mu.Unlock()
	for _, sl := range toClose {
		sl.e.Close()
	}
	return nil
}

// Observe implements autoscale.Pool: one snapshot of the signals the
// capacity model consumes. (Quantiles and burn rates come from the
// concurrency-safe metric handles, not the service mutex.)
func (s *Service) Observe() autoscale.Signals {
	p99 := s.hQueueWait.Quantile(0.99)
	burn := s.slo.maxFastBurn()
	submitted := s.cSubmitted.Value()
	s.mu.Lock()
	defer s.mu.Unlock()
	return autoscale.Signals{
		SlotsTotal:       len(s.slots),
		SlotsFree:        len(s.freeSlots),
		SlotsDraining:    s.drainingSlots,
		QueueDepth:       s.q.size,
		Running:          s.running,
		Submitted:        submitted,
		QueueWaitP99Sec:  p99,
		MeanRunSec:       s.runSecEWMA,
		QueuedEstBytes:   s.queuedEstBytes,
		ModelBytesPerSec: s.bytesPerSecEWMA,
		FastBurnRate:     burn,
	}
}

// AutoscaleStatus returns the attached controller's state, or nil when the
// service runs a fixed pool.
func (s *Service) AutoscaleStatus() *autoscale.Status {
	if s.scaler == nil {
		return nil
	}
	st := s.scaler.Status()
	return &st
}

// AutoscaleDecisions returns the controller's recorded grow/shrink trace
// (nil without autoscaling).
func (s *Service) AutoscaleDecisions() []autoscale.Decision {
	if s.scaler == nil {
		return nil
	}
	return s.scaler.Decisions()
}

// retryAfterLocked is the advertised backoff on a retryable rejection. The
// static estimate grows with the backlog; but when a scale-up is already
// pending (the desired pool exceeds the live one), capacity is about to
// arrive and quoting the static figure would hold clients off exactly when
// the grown pool wants their retries — so the hint shrinks instead.
func (s *Service) retryAfterLocked() time.Duration {
	d := retryAfter(s.q.size)
	if s.desiredSlots > len(s.slots) {
		d /= 4
		if d < 50*time.Millisecond {
			d = 50 * time.Millisecond
		}
	}
	return d
}

// Status returns a snapshot of the job.
func (s *Service) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	return j.status(), nil
}

// Result returns a finished job's output grids and scalars.
func (s *Service) Result(id string) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	if !j.state.Terminal() {
		return nil, ErrNotFinished
	}
	if j.err != nil {
		return nil, j.err
	}
	return j.result, nil
}

// Wait blocks until the job reaches a terminal state (or ctx ends) and
// returns its final status.
func (s *Service) Wait(ctx context.Context, id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	select {
	case <-j.done:
		return s.Status(id)
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
}

// Cancel cancels a job: dequeued immediately if still waiting, or its run
// context is canceled if running. Canceling a terminal job is a no-op.
func (s *Service) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, ErrUnknownJob
	}
	switch j.state {
	case StateQueued:
		s.q.remove(j)
		s.queuedEstBytes -= j.estBytes
		ts := s.tenants[j.spec.Tenant]
		ts.queued--
		ts.completed++
		j.state = StateCanceled
		j.canceled = true
		j.err = context.Canceled
		j.finished = time.Now()
		j.releaseInputs()
		s.cCanceled.Inc()
		s.vFinished.With(j.spec.Tenant, j.spec.Workload, string(StateCanceled)).Inc()
		s.gQueueDepth.Set(float64(s.q.size))
		s.tenantGaugesLocked(j.spec.Tenant, ts)
		s.logger.Info("job canceled while queued", "job", j.id, "tenant", j.spec.Tenant)
		st := j.status()
		s.mu.Unlock()
		close(j.done)
		return st, nil
	case StateRunning:
		j.cancelAsked = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	st := j.status()
	s.mu.Unlock()
	return st, nil
}

// Stop drains the service: admission closes immediately, queued and running
// jobs are given until ctx's deadline to finish. Past the deadline the queue
// is shed and running jobs are canceled — engines configured with a
// checkpoint directory have already flushed a per-stage snapshot of whatever
// they were computing, so a forced stop loses at most the stages after the
// newest checkpoint. Stop returns nil on a clean drain and an error naming
// the shed/canceled jobs otherwise.
func (s *Service) Stop(ctx context.Context) error {
	// Halt the autoscaler before taking the service mutex: its tick may be
	// inside Observe/Resize waiting on that same mutex, and once we drain
	// there is nothing left to scale.
	if s.scaler != nil {
		s.scaler.Stop()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.dispatcherDone
		return nil
	}
	s.draining = true
	s.cond.Broadcast()
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		case <-watchDone:
		}
	}()
	for (s.q.size > 0 || s.running > 0) && ctx.Err() == nil {
		s.cond.Wait()
	}
	var shed, canceled int
	var doneCh []chan struct{}
	if s.q.size > 0 || s.running > 0 {
		for _, j := range s.q.drain() {
			s.queuedEstBytes -= j.estBytes
			ts := s.tenants[j.spec.Tenant]
			ts.queued--
			ts.completed++
			j.state = StateCanceled
			j.canceled = true
			j.err = fmt.Errorf("serve: shed at shutdown: %w", context.Canceled)
			j.finished = time.Now()
			j.releaseInputs()
			s.cCanceled.Inc()
			s.vFinished.With(j.spec.Tenant, j.spec.Workload, string(StateCanceled)).Inc()
			s.tenantGaugesLocked(j.spec.Tenant, ts)
			s.logger.Warn("job shed at shutdown", "job", j.id, "tenant", j.spec.Tenant)
			doneCh = append(doneCh, j.done)
			shed++
		}
		s.gQueueDepth.Set(0)
		for _, j := range s.jobs {
			if j.state == StateRunning {
				j.cancelAsked = true
				if j.cancel != nil {
					j.cancel()
				}
				canceled++
			}
		}
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	close(watchDone)
	for _, ch := range doneCh {
		close(ch)
	}
	s.wg.Wait()
	<-s.dispatcherDone
	for _, slot := range s.slots {
		slot.e.Close()
	}
	if shed > 0 || canceled > 0 {
		return fmt.Errorf("serve: drain deadline exceeded: shed %d queued, canceled %d running", shed, canceled)
	}
	return nil
}

// Draining reports whether the service has stopped admitting jobs.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Metrics returns the service's metrics registry (the /metrics exposition
// source).
func (s *Service) Metrics() *obs.Registry { return s.opts.Metrics }

// SLO returns the current per-tenant rolling SLO windows and burn rates (the
// /v1/slo payload).
func (s *Service) SLO() SLOSnapshot { return s.slo.snapshot() }

// ListJobs returns status snapshots of known jobs, filtered by tenant and/or
// state when non-empty, ordered by job ID (which is submission order).
func (s *Service) ListJobs(tenant string, state State) []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		if tenant != "" && j.spec.Tenant != tenant {
			continue
		}
		if state != "" && j.state != state {
			continue
		}
		out = append(out, j.status())
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// ErrNoTrace is returned by JobTrace when a job finished but its spans have
// aged out of the flight recorder's ring.
var ErrNoTrace = fmt.Errorf("serve: job trace no longer recorded")

// JobTrace returns the recorded span tree of a completed job from the
// always-on flight recorder. Unknown IDs return ErrUnknownJob, jobs that
// have not finished return ErrNotFinished, and evicted traces return
// ErrNoTrace.
func (s *Service) JobTrace(id string) ([]obs.Span, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	var terminal bool
	if ok {
		terminal = j.state.Terminal()
	}
	s.mu.Unlock()
	if !ok {
		return nil, ErrUnknownJob
	}
	if spans, found := s.flight.get(id); found {
		return spans, nil
	}
	if !terminal {
		return nil, ErrNotFinished
	}
	return nil, ErrNoTrace
}

// TracedJobIDs returns the job IDs currently held by the flight recorder,
// oldest first.
func (s *Service) TracedJobIDs() []string { return s.flight.ids() }
