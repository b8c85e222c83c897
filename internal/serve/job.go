// Package serve is the multi-tenant job service: it owns a pool of reusable
// engine.Engines and runs many matrix programs concurrently with per-tenant
// admission control, a quota-aware priority queue, shared cross-job caches
// (plans and built inputs), and an HTTP JSON front end served by cmd/dmacserve.
//
// The flow of a job: Submit prices it with the planner's block memory model
// and either rejects it (typed Rejection with a retry-after hint — the queue
// is bounded, backpressure is always explicit) or enqueues it
// FIFO-within-priority. The dispatcher leases an engine slot when the job's
// tenant is under quota, runs the program via engine.RunCtx under a per-job
// context with deadline and cancellation, and publishes the result. Every
// transition is observable: per-job root spans parent the engine's stage
// spans, and the labeled serve.tenant.* metric families count every submit,
// start, finish and rejection once, per tenant, beside queue depth, queue
// wait, run time and bytes/FLOPs.
package serve

import (
	"context"
	"fmt"
	"time"

	"dmac/internal/engine"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/workload"
)

// State is a job lifecycle state. Transitions:
//
//	queued -> running -> done | failed | canceled
//	queued -> canceled            (canceled or shed before dispatch)
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Priority levels for the admission queue: 0 is most urgent. Within a level
// the queue is FIFO.
const (
	PriorityHigh = 0
	PriorityLow  = 2
	numPriority  = PriorityLow + 1
)

// JobSpec describes a submitted job. A job is either a registered workload
// (Workload names a workload.Registry entry, Params parameterize it) or a
// programmatic job (Program + Inputs, in-process submitters only).
type JobSpec struct {
	// Tenant is the submitting tenant; required.
	Tenant string
	// Workload names a registry entry. Empty for programmatic jobs.
	Workload string
	// Params parameterize the workload build and are passed as scalar
	// parameters to every execution.
	Params workload.Params
	// Program and Inputs define a programmatic job when Workload is empty.
	Program    *expr.Program
	Inputs     map[string]*matrix.Grid
	Iterations int
	// Priority is clamped to [PriorityHigh, PriorityLow].
	Priority int
	// Deadline bounds the job's run time once dispatched; 0 means the
	// service default.
	Deadline time.Duration
	// Outputs and Scalars select what programmatic jobs return; registry
	// jobs inherit them from the builder.
	Outputs []string
	Scalars []string
}

// JobStatus is the externally visible snapshot of a job.
type JobStatus struct {
	ID       string  `json:"id"`
	Tenant   string  `json:"tenant"`
	Workload string  `json:"workload,omitempty"`
	State    State   `json:"state"`
	Priority int     `json:"priority"`
	Error    string  `json:"error,omitempty"`
	Canceled bool    `json:"canceled,omitempty"`
	Deadline bool    `json:"deadline_exceeded,omitempty"`
	Faulted  bool    `json:"worker_fault,omitempty"`
	QueueSec float64 `json:"queue_sec"`
	RunSec   float64 `json:"run_sec"`
	// BlockSize is the block side the job's matrices are cut into.
	BlockSize int `json:"block_size"`
	// EstBytes is the admission-control price of the job under the block
	// memory model, at BlockSize.
	EstBytes int64 `json:"est_bytes"`
	// Iterations actually completed.
	Iterations int                `json:"iterations"`
	Scalars    map[string]float64 `json:"scalars,omitempty"`
	// Engine metrics accumulated over all iterations (zero until terminal).
	CommBytes int64   `json:"comm_bytes"`
	FLOPs     float64 `json:"flops"`
	Retries   int     `json:"retries"`
	// WireBytes is the traffic the engine's transport actually measured on
	// the wire — zero for the in-process data plane, nonzero when the service
	// runs over TCP workers.
	WireBytes int64 `json:"wire_bytes"`
}

// Result is a completed job's payload: the output grids by name plus the
// driver scalars.
type Result struct {
	Grids   map[string]*matrix.Grid
	Scalars map[string]float64
}

// job is the internal record. Fields after the immutable header are guarded
// by the service mutex; outputs/scalars/metrics are written once by the
// running goroutine before the terminal transition and only read afterwards.
type job struct {
	id        string
	spec      JobSpec
	built     *workload.BuiltJob
	cacheKey  string // the job cache's key of a registry job, "" otherwise
	blockSize int
	estBytes  int64
	priority  int

	state       State
	err         error
	canceled    bool
	deadlined   bool
	faulted     bool
	submitted   time.Time
	started     time.Time
	finished    time.Time
	iterations  int
	cancel      context.CancelFunc // non-nil while running
	cancelAsked bool
	done        chan struct{}

	result  *Result
	metrics engine.Metrics
	// resultBytes is the bytes of result's grids while the service keeps
	// them; evicted is set once it has dropped them (retainLocked).
	resultBytes int64
	evicted     bool
}

// releaseInputs drops the job's references to its inputs and program at its
// terminal transition, under the service mutex. Only runJob reads them, while
// the job itself stays in the service's table for its status, result and
// trace: holding on would keep every input reachable for the life of the
// service, long after the job cache evicted it.
func (j *job) releaseInputs() {
	j.built = nil
	j.spec.Program, j.spec.Inputs = nil, nil
}

func (j *job) status() JobStatus {
	st := JobStatus{
		ID:        j.id,
		Tenant:    j.spec.Tenant,
		Workload:  j.spec.Workload,
		State:     j.state,
		Priority:  j.priority,
		Canceled:  j.canceled,
		Deadline:  j.deadlined,
		Faulted:   j.faulted,
		BlockSize: j.blockSize,
		EstBytes:  j.estBytes,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	switch {
	case j.state == StateQueued:
		st.QueueSec = time.Since(j.submitted).Seconds()
	case !j.started.IsZero():
		st.QueueSec = j.started.Sub(j.submitted).Seconds()
		if j.state == StateRunning {
			st.RunSec = time.Since(j.started).Seconds()
		} else {
			st.RunSec = j.finished.Sub(j.started).Seconds()
		}
	default: // canceled while queued
		st.QueueSec = j.finished.Sub(j.submitted).Seconds()
	}
	if j.state.Terminal() {
		st.Iterations = j.iterations
		st.CommBytes = j.metrics.CommBytes
		st.FLOPs = j.metrics.FLOPs
		st.Retries = j.metrics.Retries
		st.WireBytes = j.metrics.WireBytes
		if j.result != nil {
			st.Scalars = j.result.Scalars
		}
	}
	return st
}

// Rejection is the typed admission-control refusal: the service is shedding
// load (queue full, tenant over quota, or draining) and the submitter should
// retry after the hinted delay — or not at all when Retryable is false (the
// job can never fit its tenant's quota).
type Rejection struct {
	Reason     string
	RetryAfter time.Duration
	Retryable  bool
}

func (r *Rejection) Error() string {
	if !r.Retryable {
		return fmt.Sprintf("serve: rejected: %s", r.Reason)
	}
	return fmt.Sprintf("serve: rejected: %s (retry after %s)", r.Reason, r.RetryAfter)
}

// ErrUnknownJob is returned by Status/Result/Cancel for absent job IDs.
var ErrUnknownJob = fmt.Errorf("serve: unknown job")

// ErrNotFinished is returned by Result for jobs that have not reached a
// terminal state.
var ErrNotFinished = fmt.Errorf("serve: job not finished")

// ErrResultEvicted is returned by Result for a finished job whose output
// grids the service no longer keeps: later results pushed them past the
// retention budget. Its status and scalars stay.
var ErrResultEvicted = fmt.Errorf("serve: job result evicted")
