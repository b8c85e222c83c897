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
	// Slots is the engine-pool size: the maximum number of concurrently
	// running jobs (default 2). NewService builds the pool once.
	Slots int
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
// one).
type engineSlot struct {
	id     int
	e      *engine.Engine
	tracer *obs.Tracer
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

	mu        sync.Mutex
	cond      *sync.Cond
	q         queue
	jobs      map[string]*job
	tenants   map[string]*tenantState
	freeSlots []*engineSlot
	slots     []*engineSlot
	running   int
	nextID    int64
	draining  bool
	closed    bool

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
	vSlots       *obs.GaugeVec // state: total | free

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

// NewService builds the engine pool, Options.Slots engines with IDs
// 0…Slots−1, and starts the dispatcher.
func NewService(opts Options) (*Service, error) {
	opts = opts.withDefaults()
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

	for id := 0; id < opts.Slots; id++ {
		slot, err := s.newSlot(id)
		if err != nil {
			return nil, err
		}
		s.slots = append(s.slots, slot)
		s.freeSlots = append(s.freeSlots, slot)
	}
	s.slotGaugesLocked()
	go s.dispatcher()
	return s, nil
}

// newSlot constructs engine slot id, checkpointing under slot-<id> when
// Options.CheckpointDir is set.
func (s *Service) newSlot(id int) (*engineSlot, error) {
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

// slotGaugesLocked refreshes the serve.slots{state} gauge family after a
// slot is leased or returned.
func (s *Service) slotGaugesLocked() {
	s.vSlots.With("total").Set(float64(len(s.slots)))
	s.vSlots.With("free").Set(float64(len(s.freeSlots)))
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
			RetryAfter: retryAfter(s.q.size),
			Retryable:  true,
		})
	}
	if s.q.size >= s.opts.QueueCapacity {
		return JobStatus{}, s.rejectLocked(spec.Tenant, ts, "queue_full", &Rejection{
			Reason:     fmt.Sprintf("admission queue full (%d)", s.q.size),
			RetryAfter: retryAfter(s.q.size),
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

// dispatchableLocked reports whether a free slot and a runnable queued job
// exist right now.
func (s *Service) dispatchableLocked() bool {
	if s.q.size == 0 || len(s.freeSlots) == 0 {
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
		slot := s.freeSlots[len(s.freeSlots)-1]
		s.freeSlots = s.freeSlots[:len(s.freeSlots)-1]
		j := s.q.pop(func(j *job) bool {
			return s.tenants[j.spec.Tenant].canRun(j.estBytes)
		})
		ts := s.tenants[j.spec.Tenant]
		ts.queued--
		ts.running++
		ts.runningBytes += j.estBytes
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
	s.freeSlots = append(s.freeSlots, slot)
	s.gRunning.Set(float64(s.running))
	s.slotGaugesLocked()
	runSec := j.finished.Sub(j.started).Seconds()
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
// the shed/canceled jobs otherwise. Stop waits for the dispatcher and every
// job goroutine to exit, then closes every slot's engine.
func (s *Service) Stop(ctx context.Context) error {
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
