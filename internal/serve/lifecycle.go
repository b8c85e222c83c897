package serve

import (
	"context"
	"fmt"
	"slices"
	"time"

	"dmac/internal/workload"
)

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

func (s *Service) rejectLocked(tenant, reason string, r *Rejection) error {
	s.vRejected.With(tenant, reason).Inc()
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
	key := ""
	if spec.Workload != "" {
		key = jobCacheKey(spec.Workload, spec.Params)
	}
	built, err := s.buildSpec(spec, key)
	if err != nil {
		return JobStatus{}, err
	}
	est := built.EstimatedBytes()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobStatus{}, fmt.Errorf("serve: service stopped")
	}
	ts := s.tenant(spec.Tenant)
	if s.draining {
		return JobStatus{}, s.rejectLocked(spec.Tenant, "draining",
			&Rejection{Reason: "service draining", Retryable: false})
	}
	if est > ts.quota.MaxBytes {
		return JobStatus{}, s.rejectLocked(spec.Tenant, "tenant_quota", &Rejection{
			Reason: fmt.Sprintf("job needs %d estimated bytes, tenant quota is %d", est, ts.quota.MaxBytes),
		})
	}
	if ts.queued >= ts.quota.MaxQueued {
		return JobStatus{}, s.rejectLocked(spec.Tenant, "tenant_quota", &Rejection{
			Reason:     fmt.Sprintf("tenant has %d jobs queued (quota %d)", ts.queued, ts.quota.MaxQueued),
			RetryAfter: retryAfter(s.q.size),
			Retryable:  true,
		})
	}
	if s.q.size >= s.opts.QueueCapacity {
		return JobStatus{}, s.rejectLocked(spec.Tenant, "queue_full", &Rejection{
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
		cacheKey:  key,
		blockSize: built.BlockSize,
		estBytes:  est,
		priority:  spec.Priority,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.q.push(j)
	ts.queued++
	s.vSubmitted.With(spec.Tenant, spec.Workload).Inc()
	s.tenantGaugesLocked(spec.Tenant, ts)
	s.logger.Info("job submitted",
		"job", j.id, "tenant", spec.Tenant, "workload", spec.Workload,
		"priority", j.priority, "est_bytes", est, "queue_depth", s.q.size)
	s.cond.Broadcast()
	return j.status(), nil
}

// buildSpec materializes the job's inputs and program: registry jobs resolve
// through the built-input cache, under key, at the side a slot's engine
// picks, above Options.BlockSize; programmatic jobs are wrapped at their
// inputs' one side.
func (s *Service) buildSpec(spec JobSpec, key string) (*workload.BuiltJob, error) {
	if spec.Workload != "" {
		size := func(rows, cols int, density float64) int {
			return max(s.opts.BlockSize, s.slots[0].e.BlockSizeFor(rows, cols, density))
		}
		return s.jobCache.getOrBuild(key, func() (*workload.BuiltJob, error) {
			return s.opts.Registry.BuildSized(spec.Workload, size, spec.Params)
		})
	}
	if spec.Program == nil {
		return nil, fmt.Errorf("serve: job names no workload and carries no program")
	}
	if err := spec.Program.Validate(); err != nil {
		return nil, fmt.Errorf("serve: invalid program: %w", err)
	}
	b := &workload.BuiltJob{
		Inputs:     spec.Inputs,
		BlockSize:  s.opts.BlockSize,
		Program:    spec.Program,
		Iterations: spec.Iterations,
		Params:     spec.Params,
		Outputs:    spec.Outputs,
		Scalars:    spec.Scalars,
	}
	first := ""
	for name, g := range spec.Inputs {
		if first == "" {
			first, b.BlockSize = name, g.BlockSize()
		} else if g.BlockSize() != b.BlockSize {
			return nil, fmt.Errorf("serve: inputs %s and %s have block sizes %d and %d; a job runs at one",
				first, name, b.BlockSize, g.BlockSize())
		}
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

// settleLocked is the one terminal transition of a job, whichever way it
// ends: a finished run (finishJob), a cancel while queued, a shed at Stop. It
// releases the tenant's live accounting, stamps the state, error and finish
// time, counts the job once in serve.tenant.jobs.finished, drops its inputs,
// logs it and forgets the oldest finished jobs past the record bound. A
// queued job is off the queue already; the caller closes j.done once the
// mutex is released.
func (s *Service) settleLocked(j *job, state State, err error) {
	ts := s.tenants[j.spec.Tenant]
	if j.state == StateRunning {
		ts.running--
		ts.runningBytes -= j.estBytes
	} else {
		ts.queued--
	}
	j.state = state
	j.err = err
	j.canceled = state == StateCanceled
	j.finished = time.Now()
	j.releaseInputs()
	s.vFinished.With(j.spec.Tenant, j.spec.Workload, string(state)).Inc()
	s.tenantGaugesLocked(j.spec.Tenant, ts)
	s.cond.Broadcast()

	st := j.status()
	attrs := []any{
		"job", st.ID, "tenant", st.Tenant, "workload", st.Workload, "state", string(st.State),
		"queue_sec", st.QueueSec, "run_sec", st.RunSec,
		"iterations", st.Iterations, "comm_bytes", st.CommBytes, "flops", st.FLOPs,
	}
	if err != nil {
		s.logger.Warn("job finished", append(attrs, "error", st.Error)...)
	} else {
		s.logger.Info("job finished", attrs...)
	}
	s.finished = append(s.finished, j)
	s.forgetLocked()
}

// forgetLocked drops the oldest finished jobs' records, and any result grids
// still kept for them, while the service holds more than jobLimit records. A
// forgotten job answers ErrUnknownJob (HTTP 404) from then on. Queued and
// running jobs are never forgotten, so they alone may hold the table past
// the bound.
func (s *Service) forgetLocked() {
	for len(s.jobs) > s.jobLimit && len(s.finished) > 0 {
		old := s.finished[0]
		s.finished = slices.Delete(s.finished, 0, 1)
		delete(s.jobs, old.id)
		if i := slices.Index(s.retained, old); i >= 0 {
			s.retained = slices.Delete(s.retained, i, i+1)
			s.retainedBytes -= old.resultBytes
			s.gRetained.Set(float64(s.retainedBytes))
		}
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
		s.settleLocked(j, StateCanceled, context.Canceled)
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
	if !s.draining {
		s.draining = true
		close(s.drainStarted)
	}
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
	for (s.q.size > 0 || s.runningLocked() > 0) && ctx.Err() == nil {
		s.cond.Wait()
	}
	var shed, canceled int
	var doneCh []chan struct{}
	if s.q.size > 0 || s.runningLocked() > 0 {
		for _, j := range s.q.drain() {
			s.settleLocked(j, StateCanceled, fmt.Errorf("serve: shed at shutdown: %w", context.Canceled))
			doneCh = append(doneCh, j.done)
			shed++
		}
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
