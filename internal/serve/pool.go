package serve

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"dmac/internal/dist"
	"dmac/internal/engine"
	"dmac/internal/matrix"
	"dmac/internal/obs"
	"dmac/internal/rewrite"
)

// engineSlot is one reusable engine plus its private tracer: a job's trace is
// what its slot's tracer holds when the job ends, drained by runJob.
type engineSlot struct {
	id     int
	e      *engine.Engine
	tracer *obs.Tracer
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

// runningLocked is the number of running jobs: each holds one leased slot.
func (s *Service) runningLocked() int { return len(s.slots) - len(s.freeSlots) }

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
// jobs in priority-then-FIFO order, skipping tenants at their quota. A job
// takes the free slot its key's cached build was left placed on, if any
// (leaseLocked).
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
		j := s.q.pop(func(j *job) bool {
			return s.tenants[j.spec.Tenant].canRun(j.estBytes)
		})
		slot := s.leaseLocked(j)
		ts := s.tenants[j.spec.Tenant]
		ts.queued--
		ts.running++
		ts.runningBytes += j.estBytes
		j.state = StateRunning
		j.started = time.Now()
		wait := j.started.Sub(j.submitted).Seconds()
		s.vQueueWait.With(j.spec.Tenant).Observe(wait)
		s.slotGaugesLocked()
		s.tenantGaugesLocked(j.spec.Tenant, ts)
		s.logger.Info("job started",
			"job", j.id, "tenant", j.spec.Tenant, "workload", j.spec.Workload,
			"slot", slot.id, "queue_sec", wait)
		s.wg.Add(1)
		go s.runJob(j, slot)
	}
}

// leaseLocked takes a free slot for j: one whose engine left j's cached
// build placed (jobCache.placement), so that j restores it instead of moving
// its inputs again, and otherwise the slot freed last. It never waits for a
// busy slot.
func (s *Service) leaseLocked(j *job) *engineSlot {
	at := len(s.freeSlots) - 1
	if j.cacheKey != "" {
		for i, slot := range s.freeSlots {
			if _, ok := s.jobCache.placement(j.cacheKey, j.built, slot.id); ok {
				at = i
				break
			}
		}
	}
	slot := s.freeSlots[at]
	s.freeSlots = slices.Delete(s.freeSlots, at, at+1)
	return slot
}

// runJob executes one job on a leased slot: reset the session, bind the
// built inputs (the first bind sets the session to the job's block size),
// restore where this slot left them when the job cache holds the build, run
// the program for its iterations under the job context, and publish the
// terminal state. A clean run (done, no stage retried) leaves the cache the
// slot's placement of the build's inputs for the key's next job there. The
// job's root span, carried by the context every run takes, parents the runs'
// span trees.
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
	if p, ok := s.jobCache.placement(j.cacheKey, j.built, slot.id); ok && runErr == nil && e.Place(p) > 0 {
		s.cPlaced.Inc()
	}

	root := slot.tracer.Start("serve", "job", 0,
		obs.String("job", j.id),
		obs.String("tenant", j.spec.Tenant),
		obs.String("workload", j.spec.Workload),
		obs.Int64("block_size", int64(j.blockSize)),
		obs.Int64("est_bytes", j.estBytes))
	ctx = obs.ContextWithSpan(ctx, root)
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
	} else if j.cacheKey != "" && total.Retries == 0 {
		s.jobCache.place(j.cacheKey, j.built, slot.id, e.Placement())
	}
	slot.tracer.End(root, obs.String("state", string(state)), obs.Int64("iterations", int64(iters)))

	// Drain the slot tracer into the flight recorder: the slot ran only this
	// job since the last drain, so these spans are exactly its tree. Draining
	// per job also keeps a long-lived slot's tracer memory bounded; Reset
	// keeps its storage for the slot's next job.
	if s.beforeDrain != nil {
		s.beforeDrain(j.id, slot.tracer.Spans())
	}
	s.flight.record(j.id, slot.tracer.Pack())
	slot.tracer.Reset()

	s.finishJob(j, slot, state, runErr, res, total, iters)
}

// finishJob ends a run: it stores the run's result and metrics, flags a
// failure caused by the deadline or a lost worker, keeps its result within
// the retention budget, settles the job (which may forget it), returns the
// slot to the pool, records the run in the tenant's run families, and feeds
// the SLO tracker.
func (s *Service) finishJob(j *job, slot *engineSlot, state State, runErr error, res *Result, total engine.Metrics, iters int) {
	s.mu.Lock()
	j.result = res
	j.metrics = total
	j.iterations = iters
	if state == StateFailed {
		var wf *dist.WorkerFailure
		j.deadlined = errors.Is(runErr, context.DeadlineExceeded)
		j.faulted = errors.As(runErr, &wf)
	}
	if res != nil {
		s.retainLocked(j)
	}
	s.settleLocked(j, state, runErr)
	s.freeSlots = append(s.freeSlots, slot)
	s.slotGaugesLocked()
	runSec := j.finished.Sub(j.started).Seconds()
	s.vRunSeconds.With(j.spec.Tenant, j.spec.Workload).Observe(runSec)
	s.vCommBytes.With(j.spec.Tenant).Add(total.CommBytes)
	s.vFLOPs.With(j.spec.Tenant).Add(int64(total.FLOPs))
	if runSec > 0 && total.FLOPs > 0 {
		s.vJobGFLOPS.With(j.spec.Tenant).Observe(total.FLOPs / runSec / 1e9)
	}
	latency := j.finished.Sub(j.submitted).Seconds()
	s.mu.Unlock()
	// Canceled jobs are client decisions, not service failures; only done and
	// failed jobs consume SLO budget.
	if state != StateCanceled {
		s.slo.record(j.spec.Tenant, latency, state == StateFailed)
	}
	close(j.done)
}

// retainLocked keeps a done job's result grids and evicts the oldest kept
// results' grids until the rest fit in the retention budget. The newest
// result is never evicted, so one larger than the budget is kept until the
// next job finishes. An evicted job keeps its record, status, scalars and
// trace; its Result returns ErrResultEvicted from then on. The grids a
// client already holds stay the client's: eviction replaces the job's
// Result rather than editing it.
func (s *Service) retainLocked(j *job) {
	for _, g := range j.result.Grids {
		j.resultBytes += g.MemBytes()
	}
	s.retained = append(s.retained, j)
	s.retainedBytes += j.resultBytes
	for len(s.retained) > 1 && s.retainedBytes > s.resultBudget {
		old := s.retained[0]
		s.retained = slices.Delete(s.retained, 0, 1)
		s.retainedBytes -= old.resultBytes
		old.result = &Result{Scalars: old.result.Scalars}
		old.resultBytes, old.evicted = 0, true
		s.cEvicted.Inc()
	}
	s.gRetained.Set(float64(s.retainedBytes))
}
