package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dmac/internal/dist"
	"dmac/internal/engine"
	"dmac/internal/matrix"
	"dmac/internal/obs"
	"dmac/internal/workload"
)

func testOptions() Options {
	return Options{
		Planner:         engine.DMac,
		Cluster:         dist.Config{Workers: 4, LocalParallelism: 2},
		BlockSize:       8,
		Slots:           2,
		DefaultDeadline: time.Minute,
	}
}

func newTestService(t *testing.T, opts Options) *Service {
	t.Helper()
	s, err := NewService(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Stop(ctx)
	})
	return s
}

// soloRun executes the same registry workload on a standalone engine — the
// differential oracle served results must match bit-for-bit.
func soloRun(t *testing.T, opts Options, name string, params workload.Params) (map[string]*matrix.Grid, map[string]float64) {
	t.Helper()
	built, err := workload.DefaultRegistry().Build(name, opts.BlockSize, params)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(opts.Planner, opts.Cluster, opts.BlockSize)
	for n, g := range built.Inputs {
		if err := e.Bind(n, g); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < built.Iterations; i++ {
		if _, err := e.Run(built.Program, params); err != nil {
			t.Fatal(err)
		}
	}
	grids := make(map[string]*matrix.Grid)
	for _, n := range built.Outputs {
		g, ok := e.Grid(n)
		if !ok {
			t.Fatalf("solo run produced no output %q", n)
		}
		grids[n] = g
	}
	scalars := make(map[string]float64)
	for _, n := range built.Scalars {
		if v, ok := e.Scalar(n); ok {
			scalars[n] = v
		}
	}
	return grids, scalars
}

// TestTwoTenantsIsolatedResults is the headline acceptance test: two tenants
// submit different jobs concurrently and each gets exactly the result a
// dedicated single-job engine would have produced.
func TestTwoTenantsIsolatedResults(t *testing.T) {
	opts := testOptions()
	s := newTestService(t, opts)

	jobs := []struct {
		tenant   string
		workload string
		params   workload.Params
	}{
		{"alice", "pagerank", workload.Params{"nodes": 64, "iters": 3, "seed": 11}},
		{"bob", "gram", workload.Params{"rows": 40, "cols": 24, "seed": 7}},
		{"alice", "blend", workload.Params{"n": 32, "k": 6, "seed": 5}},
		{"bob", "pagerank", workload.Params{"nodes": 48, "iters": 2, "seed": 3}},
	}
	ids := make([]string, len(jobs))
	for i, jb := range jobs {
		st, err := s.Submit(JobSpec{Tenant: jb.tenant, Workload: jb.workload, Params: jb.params})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i, id := range ids {
		st, err := s.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("job %d (%s): state %s, err %q", i, jobs[i].workload, st.State, st.Error)
		}
		res, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		wantGrids, wantScalars := soloRun(t, opts, jobs[i].workload, jobs[i].params)
		for name, want := range wantGrids {
			got := res.Grids[name]
			if got == nil || !matrix.GridEqual(got, want, 0) {
				t.Errorf("job %d (%s): output %s diverged from single-job engine", i, jobs[i].workload, name)
			}
		}
		for name, want := range wantScalars {
			if got := res.Scalars[name]; got != want {
				t.Errorf("job %d: scalar %s = %v, want %v", i, name, got, want)
			}
		}
	}

	stats := s.Stats()
	if stats.Completed != int64(len(jobs)) {
		t.Errorf("stats.Completed = %d, want %d", stats.Completed, len(jobs))
	}
	if stats.QueueWaitCount != int64(len(jobs)) {
		t.Errorf("stats.QueueWaitCount = %d, want %d", stats.QueueWaitCount, len(jobs))
	}
	if stats.Tenants["alice"].Completed != 2 || stats.Tenants["bob"].Completed != 2 {
		t.Errorf("per-tenant completion counts wrong: %+v", stats.Tenants)
	}
}

// TestTenantQuotaRejection pins the isolation half of admission control: a
// tenant over its queue quota is rejected with a retryable Rejection while
// another tenant's submissions proceed untouched.
func TestTenantQuotaRejection(t *testing.T) {
	opts := testOptions()
	opts.Slots = 1
	opts.Quotas = map[string]TenantQuota{
		"greedy": {MaxConcurrent: 1, MaxQueued: 1},
	}
	s := newTestService(t, opts)

	params := workload.Params{"nodes": 256, "iters": 2000, "seed": 1}
	var ids []string
	var rejected *Rejection
	for i := 0; i < 5; i++ {
		st, err := s.Submit(JobSpec{Tenant: "greedy", Workload: "pagerank", Params: params, Deadline: 2 * time.Second})
		if err != nil {
			if !errors.As(err, &rejected) {
				t.Fatalf("submit %d: unexpected non-rejection error %v", i, err)
			}
			break
		}
		ids = append(ids, st.ID)
	}
	if rejected == nil {
		t.Fatal("greedy tenant was never rejected")
	}
	if !rejected.Retryable || rejected.RetryAfter <= 0 {
		t.Errorf("rejection should be retryable with a retry-after hint: %+v", rejected)
	}

	// The other tenant is unaffected and completes.
	st, err := s.Submit(JobSpec{Tenant: "modest", Workload: "gram", Params: workload.Params{"rows": 24, "cols": 16}})
	if err != nil {
		t.Fatalf("modest tenant rejected alongside greedy: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if fin, err := s.Wait(ctx, st.ID); err != nil || fin.State != StateDone {
		t.Fatalf("modest tenant job: %v / %+v", err, fin)
	}
	for _, id := range ids {
		if _, err := s.Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Rejected == 0 {
		t.Error("stats.Rejected should count the quota rejection")
	}
}

// TestByteQuotaRejection: a job priced over the tenant's memory quota is
// rejected outright (not retryable — it can never fit).
func TestByteQuotaRejection(t *testing.T) {
	opts := testOptions()
	opts.Quotas = map[string]TenantQuota{"tiny": {MaxBytes: 1}}
	s := newTestService(t, opts)
	_, err := s.Submit(JobSpec{Tenant: "tiny", Workload: "gram"})
	var rej *Rejection
	if !errors.As(err, &rej) {
		t.Fatalf("got %v, want Rejection", err)
	}
	if rej.Retryable {
		t.Error("over-byte-quota rejection must not be retryable")
	}
}

// TestQueueBackpressure: the global queue is bounded; overflow is an
// explicit 429-style rejection, never unbounded buffering.
func TestQueueBackpressure(t *testing.T) {
	opts := testOptions()
	opts.Slots = 1
	opts.QueueCapacity = 2
	opts.DefaultQuota = TenantQuota{MaxConcurrent: 1, MaxQueued: 100}
	s := newTestService(t, opts)

	params := workload.Params{"nodes": 128, "iters": 40, "seed": 2}
	sawReject := false
	for i := 0; i < 6; i++ {
		_, err := s.Submit(JobSpec{Tenant: "t", Workload: "pagerank", Params: params})
		var rej *Rejection
		if errors.As(err, &rej) {
			sawReject = true
			if !rej.Retryable {
				t.Errorf("queue-full rejection should be retryable")
			}
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !sawReject {
		t.Fatal("queue never pushed back")
	}
}

// TestCancelQueuedAndRunning covers both cancellation paths.
func TestCancelQueuedAndRunning(t *testing.T) {
	opts := testOptions()
	opts.Slots = 1
	s := newTestService(t, opts)

	slow := workload.Params{"nodes": 256, "iters": 200, "seed": 9}
	running, err := s.Submit(JobSpec{Tenant: "t", Workload: "pagerank", Params: slow})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(JobSpec{Tenant: "t", Workload: "pagerank", Params: slow})
	if err != nil {
		t.Fatal(err)
	}

	// The second job is still queued (one slot, same tenant): cancel it.
	st, err := s.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("queued cancel: state %s", st.State)
	}

	// Wait for the first to actually start, then cancel it mid-run.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err = s.Status(running.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning || st.State.Terminal() || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fin, err := s.Wait(ctx, running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateCanceled {
		t.Fatalf("running cancel: state %s (err %q)", fin.State, fin.Error)
	}
	if s.Stats().Canceled != 2 {
		t.Errorf("stats.Canceled = %d, want 2", s.Stats().Canceled)
	}
}

// TestJobDeadline: a job's per-run deadline expires mid-flight and surfaces
// as a failed job marked deadline_exceeded.
func TestJobDeadline(t *testing.T) {
	s := newTestService(t, testOptions())
	st, err := s.Submit(JobSpec{
		Tenant:   "t",
		Workload: "pagerank",
		Params:   workload.Params{"nodes": 256, "iters": 200, "seed": 4},
		Deadline: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	fin, err := s.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateFailed || !fin.Deadline {
		t.Fatalf("state %s deadline=%v, want failed with deadline_exceeded", fin.State, fin.Deadline)
	}
}

// TestStopDrains: a graceful stop finishes everything that was admitted and
// rejects new submissions with a draining rejection.
func TestStopDrains(t *testing.T) {
	s := newTestService(t, testOptions())
	var ids []string
	for i := 0; i < 4; i++ {
		st, err := s.Submit(JobSpec{Tenant: "t", Workload: "blend", Params: workload.Params{"n": 32, "k": 4, "seed": float64(i)}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	var stopErr error
	go func() {
		defer wg.Done()
		stopErr = s.Stop(ctx)
	}()
	// Admission closes promptly even while jobs drain.
	var rej *Rejection
	for i := 0; i < 1000; i++ {
		_, err := s.Submit(JobSpec{Tenant: "t", Workload: "gram"})
		if errors.As(err, &rej) || err != nil && err.Error() == "serve: service stopped" {
			break
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	if stopErr != nil {
		t.Fatalf("graceful stop reported forced work: %v", stopErr)
	}
	for _, id := range ids {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Errorf("job %s: state %s after drain, want done", id, st.State)
		}
	}
}

// TestStopForceCancels: when the drain deadline is too short, queued jobs are
// shed and running jobs canceled — and Stop says so instead of hanging.
func TestStopForceCancels(t *testing.T) {
	opts := testOptions()
	opts.Slots = 1
	opts.DefaultQuota = TenantQuota{MaxConcurrent: 1, MaxQueued: 100}
	s := newTestService(t, opts)
	slow := workload.Params{"nodes": 256, "iters": 500, "seed": 8}
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := s.Submit(JobSpec{Tenant: "t", Workload: "pagerank", Params: slow})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Stop(ctx); err == nil {
		t.Fatal("forced stop should report shed/canceled jobs")
	}
	for _, id := range ids {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if !st.State.Terminal() {
			t.Errorf("job %s still %s after forced stop", id, st.State)
		}
	}
}

// TestSharedCachesAcrossJobs: repeat submissions of the same parameterized
// workload hit both the built-input cache and the shared plan cache.
func TestSharedCachesAcrossJobs(t *testing.T) {
	s := newTestService(t, testOptions())
	params := workload.Params{"rows": 32, "cols": 24, "seed": 6}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, tenant := range []string{"a", "b", "a", "b"} {
		st, err := s.Submit(JobSpec{Tenant: tenant, Workload: "gram", Params: params})
		if err != nil {
			t.Fatal(err)
		}
		if fin, err := s.Wait(ctx, st.ID); err != nil || fin.State != StateDone {
			t.Fatalf("%v / %+v", err, fin)
		}
	}
	stats := s.Stats()
	if stats.JobCache.Hits == 0 {
		t.Error("built-input cache never hit across identical submissions")
	}
	if stats.PlanCache.Hits == 0 {
		t.Error("shared plan cache never hit across engines")
	}
	if stats.PlanCache.Misses > 2 {
		t.Errorf("plan regenerated %d times for one program shape", stats.PlanCache.Misses)
	}
}

// TestProgrammaticJob: the in-process API accepts a raw program + inputs.
func TestProgrammaticJob(t *testing.T) {
	s := newTestService(t, testOptions())
	built, err := workload.DefaultRegistry().Build("gram", 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(JobSpec{
		Tenant:  "t",
		Program: built.Program,
		Inputs:  built.Inputs,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	fin, err := s.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone {
		t.Fatalf("state %s: %s", fin.State, fin.Error)
	}
	res, err := s.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Grids["G"] == nil {
		t.Error("programmatic job should default outputs to the program's assignments")
	}
	if _, ok := res.Scalars["gram_sum"]; !ok {
		t.Error("programmatic job should default scalars to the program's scalar outs")
	}
}

// TestTerminalJobReleasesInputs: a job drops its inputs and program at every
// terminal transition — finished, canceled while queued, shed by a forced
// stop — while its status, result and trace still read back.
func TestTerminalJobReleasesInputs(t *testing.T) {
	opts := testOptions()
	opts.Slots = 1
	opts.DefaultQuota = TenantQuota{MaxConcurrent: 1, MaxQueued: 100}
	s := newTestService(t, opts)
	released := func(id string) bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		j := s.jobs[id]
		return j.built == nil && j.spec.Inputs == nil && j.spec.Program == nil
	}
	built, err := workload.DefaultRegistry().Build("gram", 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	done, err := s.Submit(JobSpec{Tenant: "t", Program: built.Program, Inputs: built.Inputs})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if fin, err := s.Wait(ctx, done.ID); err != nil || fin.State != StateDone {
		t.Fatalf("%v / %+v", err, fin)
	}
	if !released(done.ID) {
		t.Error("a finished job still holds its inputs")
	}
	if st, err := s.Status(done.ID); err != nil || st.State != StateDone || st.Iterations != 1 {
		t.Errorf("status after release: %+v, %v", st, err)
	}
	if res, err := s.Result(done.ID); err != nil || res.Grids["G"] == nil {
		t.Errorf("result after release: %+v, %v", res, err)
	}
	if spans, err := s.JobTrace(done.ID); err != nil || len(spans) == 0 {
		t.Errorf("trace after release: %d spans, %v", len(spans), err)
	}

	// One slot, one running job per tenant: the first slow job runs, the
	// rest queue.
	slow := workload.Params{"nodes": 256, "iters": 500, "seed": 8}
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := s.Submit(JobSpec{Tenant: "t", Workload: "pagerank", Params: slow})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if st, err := s.Cancel(ids[2]); err != nil || st.State != StateCanceled {
		t.Fatalf("cancel of a queued job: %+v, %v", st, err)
	}
	if !released(ids[2]) {
		t.Error("a job canceled while queued still holds its inputs")
	}
	stopCtx, stopCancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer stopCancel()
	if err := s.Stop(stopCtx); err == nil {
		t.Fatal("forced stop should report shed/canceled jobs")
	}
	for _, id := range ids[:2] {
		st, err := s.Status(id)
		if err != nil || !st.State.Terminal() {
			t.Errorf("job %s after forced stop: %+v, %v", id, st, err)
		}
		if !released(id) {
			t.Errorf("job %s (%s) still holds its inputs after a forced stop", id, st.State)
		}
	}
}

// TestJobRootSpans: every job emits a serve/job root span, the engine's run
// spans are parented under it, and the whole tree lands in the flight
// recorder under the job's ID.
func TestJobRootSpans(t *testing.T) {
	s := newTestService(t, testOptions())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := s.Submit(JobSpec{Tenant: "t", Workload: "gram"})
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := s.Wait(ctx, st.ID); err != nil || fin.State != StateDone {
		t.Fatalf("%v / %+v", err, fin)
	}
	spans, err := s.JobTrace(st.ID)
	if err != nil {
		t.Fatalf("JobTrace: %v", err)
	}
	var root *obs.Span
	for i := range spans {
		if spans[i].Cat == "serve" && spans[i].Name == "job" {
			root = &spans[i]
		}
	}
	if root == nil {
		t.Fatal("no serve/job root span")
	}
	childRuns := 0
	for _, sp := range spans {
		if sp.Cat == "engine" && sp.Name == "run" && sp.Parent == root.ID {
			childRuns++
		}
	}
	if childRuns == 0 {
		t.Error("engine run spans are not parented under the job root span")
	}
	// The slot tracer was drained into the recorder: a second job must not
	// see the first job's spans.
	for _, tr := range s.Tracers() {
		if tr.Len() != 0 {
			t.Errorf("slot tracer retains %d spans after drain", tr.Len())
		}
	}
}
