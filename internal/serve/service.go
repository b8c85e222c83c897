package serve

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"time"

	"dmac/internal/dist"
	"dmac/internal/engine"
	"dmac/internal/obs"
	"dmac/internal/workload"
)

// Options configures a Service. Zero values pick serving-appropriate
// defaults.
type Options struct {
	// Planner and Cluster configure every engine slot.
	Planner engine.Planner
	Cluster dist.Config
	// BlockSize is the floor on a job's block side (default 8). A registry
	// job is cut at the side a slot's engine picks for its largest matrix
	// (Engine.BlockSizeFor), or at BlockSize when that is larger; a
	// programmatic job runs at its inputs' block size.
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
	// SLO is every tenant's service-level objective. Zero fields fall back
	// to built-in defaults (objective 0.99, latency 5s).
	SLO SLOConfig
	// FlightRecorderJobs bounds the always-on trace ring: how many recent
	// jobs keep their full span tree queryable via JobTrace (default 256).
	FlightRecorderJobs int
}

// Bounds of the two caches every engine slot shares: plans by signature,
// and built registry inputs by total bytes.
const (
	sharedPlanEntries = 128
	jobCacheBytes     = 64 << 20
)

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

// Service is the multi-tenant job service. See the package comment for the
// life of a job. All methods are safe for concurrent use.
//
// The labeled serve.tenant.* families are the service's only job ledger:
// every submit, start, finish and rejection is counted there once, and Stats
// derives its totals from them.
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
	nextID    int64
	draining  bool
	closed    bool

	wg             sync.WaitGroup
	dispatcherDone chan struct{}

	// labeled metric families (registry-owned, concurrency-safe)
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
	vSlots      *obs.GaugeVec     // state: total | free
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
		shared:         engine.NewPlanCache(sharedPlanEntries),
		jobCache:       newJobCache(jobCacheBytes),
		start:          time.Now(),
		logger:         opts.Logger,
		slo:            newSLOTracker(opts.SLO),
		flight:         newFlightRecorder(opts.FlightRecorderJobs),
		jobs:           make(map[string]*job),
		tenants:        make(map[string]*tenantState),
		dispatcherDone: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	m := opts.Metrics
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
