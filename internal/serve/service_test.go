package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
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

// foreverJob is a programmatic job that never ends on its own: a Gram
// program run for as many iterations as an int32 holds. It holds its slot
// until a deadline, a cancel or a forced stop ends it, so a test built on it
// assumes nothing about how long a job takes.
func foreverJob(t *testing.T, tenant string) JobSpec {
	t.Helper()
	built, err := workload.DefaultRegistry().Build("gram", 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	return JobSpec{Tenant: tenant, Program: built.Program, Inputs: built.Inputs, Iterations: math.MaxInt32}
}

// waitRunning polls, without sleeping, until the job has been dispatched.
func waitRunning(t *testing.T, s *Service, id string) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; runtime.Gosched() {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started: %s", id, st.State)
		}
	}
}

// soloRun executes the same registry workload at block size bs on a
// standalone engine — the differential oracle served results must match
// bit-for-bit.
func soloRun(t *testing.T, opts Options, name string, params workload.Params, bs int) (map[string]*matrix.Grid, map[string]float64) {
	t.Helper()
	built, err := workload.DefaultRegistry().Build(name, bs, params)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(opts.Planner, opts.Cluster, bs)
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

// resultDiff holds a served result to a reference run's outputs, grids by
// matrix.BitDiff and scalars by bits, and returns the first difference or "".
func resultDiff(res *Result, grids map[string]*matrix.Grid, scalars map[string]float64) string {
	for name, want := range grids {
		if got := res.Grids[name]; got == nil {
			return "no output " + name
		} else if d := matrix.BitDiff(got, want); d != "" {
			return "output " + name + " at " + d
		}
	}
	for name, want := range scalars {
		if got := res.Scalars[name]; math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Sprintf("scalar %s = %v, want %v", name, got, want)
		}
	}
	return ""
}

// TestTwoTenantsIsolatedResults is the headline acceptance test: two tenants
// submit different jobs concurrently and each gets exactly the result a
// dedicated single-job engine at the job's block size would have produced.
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
	sizes := make([]int, len(jobs))
	for i, jb := range jobs {
		st, err := s.Submit(JobSpec{Tenant: jb.tenant, Workload: jb.workload, Params: jb.params})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i], sizes[i] = st.ID, st.BlockSize
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
		wantGrids, wantScalars := soloRun(t, opts, jobs[i].workload, jobs[i].params, sizes[i])
		if d := resultDiff(res, wantGrids, wantScalars); d != "" {
			t.Errorf("job %d (%s) diverged from a single-job engine: %s", i, jobs[i].workload, d)
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

	running, err := s.Submit(foreverJob(t, "t"))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(foreverJob(t, "t"))
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
	waitRunning(t, s, running.ID)
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
// as a failed job marked deadline_exceeded. The job never ends on its own, so
// only the deadline can end it.
func TestJobDeadline(t *testing.T) {
	s := newTestService(t, testOptions())
	spec := foreverJob(t, "t")
	spec.Deadline = 20 * time.Millisecond
	st, err := s.Submit(spec)
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
	// Admission closes as the drain begins, even while jobs drain.
	<-s.drainStarted
	var rej *Rejection
	if _, err := s.Submit(JobSpec{Tenant: "t", Workload: "gram"}); !errors.As(err, &rej) && (err == nil || err.Error() != "serve: service stopped") {
		t.Errorf("submit after the drain began: %v, want a draining rejection", err)
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
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := s.Submit(foreverJob(t, "t"))
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

// TestRegistryJobBlockSize: a registry job is cut at the paper's Eq. 3 pick
// for its largest matrix on as many of the service's threads as that
// matrix's expected entries pay for (one per cost.MinTaskEntries = 8 192),
// or at Options.BlockSize when that is larger. The cases cover each bound
// binding on a cluster of 4 workers x 2 threads. The job's status, root span
// and outputs carry the size, and its result is bit-identical to a
// single-job engine at that size.
func TestRegistryJobBlockSize(t *testing.T) {
	for _, c := range []struct {
		why      string
		workload string
		params   workload.Params
		floor    int
		want     int
	}{
		// 262 144 entries pay for all 8 threads; Eq. 3 gives
		// sqrt(512*512/8) = 181, under the floor.
		{"floor", "blend", workload.Params{"n": 512, "k": 8, "seed": 4}, 200, 200},
		// 256 x 3 = 768 entries pay for one task: the whole graph, where
		// Eq. 3 alone would cut at sqrt(256*256/8) = 90.
		{"work, one task", "pagerank", workload.Params{"nodes": 256, "iters": 2, "seed": 3}, 8, 256},
		// 512 x 128 x 0.5 = 32 768 entries pay for 4 tasks:
		// sqrt(512*128/4) = 128, where Eq. 3 alone would cut at 90.
		{"work, four tasks", "gram", workload.Params{"rows": 512, "cols": 128, "sparsity": 0.5, "seed": 5}, 8, 128},
		// A dense 512 x 512 V pays for all 8 threads: Eq. 3's
		// sqrt(512*512/8) = 181.
		{"Eq. 3", "gram", workload.Params{"rows": 512, "cols": 512, "sparsity": 1, "seed": 6}, 8, 181},
	} {
		opts := testOptions()
		opts.BlockSize = c.floor
		s := newTestService(t, opts)
		st, err := s.Submit(JobSpec{Tenant: "t", Workload: c.workload, Params: c.params})
		if err != nil {
			t.Fatal(err)
		}
		if st.BlockSize != c.want {
			t.Errorf("%s binds: submitted at block size %d, want %d", c.why, st.BlockSize, c.want)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if fin, err := s.Wait(ctx, st.ID); err != nil || fin.State != StateDone || fin.BlockSize != c.want {
			t.Fatalf("%s binds: %+v, %v; want done at block size %d", c.why, fin, err, c.want)
		}
		res, err := s.Result(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		want, wantScalars := soloRun(t, opts, c.workload, c.params, c.want)
		if d := resultDiff(res, want, wantScalars); d != "" {
			t.Errorf("%s binds: diverged from a single-job engine at %d: %s", c.why, c.want, d)
		}
		for name, got := range res.Grids {
			if got.BlockSize() != c.want {
				t.Errorf("%s binds: %s at block size %d, want %d", c.why, name, got.BlockSize(), c.want)
			}
		}
		spans, err := s.JobTrace(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range spans {
			if sp.Cat == "serve" && sp.Name == "job" {
				if a, ok := sp.Attr("block_size"); !ok || a.Int != int64(c.want) {
					t.Errorf("%s binds: root span block_size %+v, want %d", c.why, a, c.want)
				}
			}
		}
	}
}

// TestSubmitDegreeBeyondNodes: a PageRank request whose degree no graph of
// its size can have is served on the complete graph, whole, not a panic in
// Submit's build (1e13 x 64 edges once overflowed the edge reservation).
func TestSubmitDegreeBeyondNodes(t *testing.T) {
	opts := testOptions()
	s := newTestService(t, opts)
	params := workload.Params{"nodes": 64, "degree": 1e13, "iters": 2}
	st, err := s.Submit(JobSpec{Tenant: "t", Workload: "pagerank", Params: params})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// 64 x 63 entries pay for one task: one 64-wide block.
	if fin, err := s.Wait(ctx, st.ID); err != nil || fin.State != StateDone || fin.BlockSize != 64 {
		t.Fatalf("%+v, %v; want done at block size 64", fin, err)
	}
	res, err := s.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := soloRun(t, opts, "pagerank", params, 64)
	if matrix.BitDiff(res.Grids["rank"], want["rank"]) != "" {
		t.Error("rank diverged from a single-job engine at block size 64")
	}
}

// TestProgrammaticJobAtItsInputsBlockSize: a programmatic job whose inputs use
// a block size other than Options.BlockSize is served at theirs.
func TestProgrammaticJobAtItsInputsBlockSize(t *testing.T) {
	opts := testOptions()
	s := newTestService(t, opts)
	built, err := workload.DefaultRegistry().Build("gram", 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(JobSpec{Tenant: "t", Program: built.Program, Inputs: built.Inputs})
	if err != nil {
		t.Fatal(err)
	}
	if st.BlockSize != 5 {
		t.Errorf("submitted at block size %d, want its inputs' 5", st.BlockSize)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if fin, err := s.Wait(ctx, st.ID); err != nil || fin.State != StateDone {
		t.Fatalf("%v / %+v", err, fin)
	}
	res, err := s.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := soloRun(t, opts, "gram", nil, 5)
	if matrix.BitDiff(res.Grids["G"], want["G"]) != "" {
		t.Error("G diverged from a single-job engine at block size 5")
	}
}

// TestProgrammaticJobMixedBlockSizes: inputs at two block sizes are a
// validation error at Submit — not an admission rejection, and no job is
// queued to fail at bind on a slot.
func TestProgrammaticJobMixedBlockSizes(t *testing.T) {
	s := newTestService(t, testOptions())
	reg := workload.DefaultRegistry()
	a, err := reg.Build("blend", 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := reg.Build("blend", 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit(JobSpec{Tenant: "t", Program: a.Program,
		Inputs: map[string]*matrix.Grid{"A": a.Inputs["A"], "B": b.Inputs["B"]}})
	var rej *Rejection
	if err == nil || errors.As(err, &rej) {
		t.Fatalf("mixed block sizes: %v, want a validation error", err)
	}
	if n := len(s.ListJobs("", "")); n != 0 || s.Stats().Submitted != 0 {
		t.Errorf("a refused job was recorded: %d jobs, %d submitted", n, s.Stats().Submitted)
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

	// One slot, one running job per tenant: the first job, which never ends
	// on its own, runs, and the rest queue behind it.
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := s.Submit(foreverJob(t, "t"))
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
	// An expired drain deadline: Stop sheds the queued job and cancels the
	// running one at once.
	stopCtx, stopCancel := context.WithCancel(context.Background())
	stopCancel()
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

// TestStatsExposeSlots pins the pool shape the service reports: /v1/stats
// has exactly the keys below, slots_total and slots_free among them and both
// Slots whenever no job runs; /metrics has exactly the total and free
// children of dmac_serve_slots. Once a job has started from where its slot
// left its cached inputs, job_cache has exactly the keys below and counts it
// as placed.
func TestStatsExposeSlots(t *testing.T) {
	const statsKeys = "canceled completed draining failed job_cache plan_cache " +
		"queue_depth queue_wait_count queue_wait_p50_sec queue_wait_p95_sec queue_wait_p99_sec queue_wait_sum_sec " +
		"rejected results_retained_bytes run_count run_p50_sec run_p95_sec run_p99_sec run_sum_sec running " +
		"slots_free slots_total submitted tenants traces_retained_bytes uptime_sec"
	const jobCacheKeys = "bytes entries hits misses placed"
	opts := testOptions()
	opts.Metrics = obs.NewRegistry()
	s := newTestService(t, opts)
	h := s.Handler()
	get := func(path string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: %d", path, rec.Code)
		}
		return rec.Body.String()
	}
	check := func(when string) {
		t.Helper()
		var st map[string]any
		if err := json.Unmarshal([]byte(get("/v1/stats")), &st); err != nil {
			t.Fatal(err)
		}
		want := float64(opts.Slots)
		if st["slots_total"] != want || st["slots_free"] != want {
			t.Errorf("%s: slots_total %v slots_free %v, want %v/%v", when, st["slots_total"], st["slots_free"], want, want)
		}
		keys := make([]string, 0, len(st))
		for k := range st {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if got := strings.Join(keys, " "); got != statsKeys {
			t.Errorf("%s: /v1/stats keys\n got %s\nwant %s", when, got, statsKeys)
		}
		var samples []string
		for _, line := range strings.Split(get("/metrics"), "\n") {
			if strings.HasPrefix(line, "dmac_serve_slots{") {
				samples = append(samples, line)
			}
		}
		sort.Strings(samples)
		n := strconv.Itoa(opts.Slots)
		wantSamples := []string{`dmac_serve_slots{state="free"} ` + n, `dmac_serve_slots{state="total"} ` + n}
		if strings.Join(samples, "\n") != strings.Join(wantSamples, "\n") {
			t.Errorf("%s: dmac_serve_slots samples %q, want %q", when, samples, wantSamples)
		}
	}
	check("idle")
	runJobToDone(t, s, "t")
	check("after a job")
	runJobToDone(t, s, "t")
	runJobToDone(t, s, "t")
	check("after a placed job")
	var st struct {
		JobCache map[string]float64 `json:"job_cache"`
	}
	if err := json.Unmarshal([]byte(get("/v1/stats")), &st); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(st.JobCache))
	for k := range st.JobCache {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, " "); got != jobCacheKeys {
		t.Errorf("/v1/stats job_cache keys\n got %s\nwant %s", got, jobCacheKeys)
	}
	if st.JobCache["placed"] != 1 {
		t.Errorf("job_cache counts %v jobs placed, want 1", st.JobCache["placed"])
	}
}

// TestNoGoroutineOutlivesStop: once Stop returns, no goroutine of the service
// is left — not the dispatcher, not a job's runner, not the drain-deadline
// watcher — whether the drain was clean or forced a running, checkpointing
// job to cancel.
func TestNoGoroutineOutlivesStop(t *testing.T) {
	// leftBehind returns the stack of a goroutine other than this one that is
	// still inside the service, or "". Frames are matched, not the "created
	// by" line, and the check polls, yielding, up to a deadline: a goroutine
	// that has signalled its exit may still be returning, while one that is
	// really left never goes.
	leftBehind := func() string {
		buf := make([]byte, 1<<20)
		for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
			var left string
			stacks := strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")
			for _, g := range stacks[1:] { // the first is the caller's
				g, _, _ = strings.Cut(g, "\ncreated by ")
				if strings.Contains(g, "dmac/internal/serve.") {
					left = g
				}
			}
			if left == "" || time.Now().After(deadline) {
				return left
			}
		}
	}
	newService := func() *Service {
		opts := testOptions()
		opts.Slots = 1
		opts.CheckpointDir = t.TempDir()
		opts.DefaultQuota = TenantQuota{MaxConcurrent: 1, MaxQueued: 100}
		return newTestService(t, opts)
	}
	submit := func(s *Service, spec JobSpec) string {
		t.Helper()
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return st.ID
	}

	// A clean drain: every admitted job finishes before Stop returns.
	s := newService()
	for i := 0; i < 3; i++ {
		submit(s, JobSpec{Tenant: "t", Workload: "pagerank", Params: workload.Params{"nodes": 32, "iters": 3, "seed": float64(i)}})
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		t.Fatalf("clean drain: %v", err)
	}
	if g := leftBehind(); g != "" {
		t.Errorf("after a clean drain, a goroutine outlives Stop:\n%s", g)
	}

	// A forced stop: the drain deadline has already passed, so Stop sheds the
	// queued job and cancels the running one at once.
	s = newService()
	running, queued := submit(s, foreverJob(t, "t")), submit(s, foreverJob(t, "t"))
	waitRunning(t, s, running)
	expired, expire := context.WithCancel(context.Background())
	expire()
	if err := s.Stop(expired); err == nil {
		t.Fatal("forced stop reported a clean drain")
	}
	for _, id := range []string{running, queued} {
		if st, err := s.Status(id); err != nil || st.State != StateCanceled {
			t.Errorf("job %s after forced stop: %+v, %v", id, st, err)
		}
	}
	if g := leftBehind(); g != "" {
		t.Errorf("after a forced stop, a goroutine outlives Stop:\n%s", g)
	}
}

// TestLifecycleLedger drives every way a job ends — done, failed, cancelled
// while running, cancelled while queued, shed at Stop — and every rejection
// reason across two tenants, then holds /v1/stats to the job table and to the
// labeled serve.tenant.* families in the metrics registry.
func TestLifecycleLedger(t *testing.T) {
	opts := testOptions()
	opts.Slots = 1
	opts.QueueCapacity = 2
	opts.DefaultQuota = TenantQuota{MaxConcurrent: 1, MaxQueued: 100}
	opts.Quotas = map[string]TenantQuota{"b": {MaxConcurrent: 1, MaxQueued: 1}}
	s := newTestService(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	submit := func(spec JobSpec) string {
		t.Helper()
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return st.ID
	}
	reject := func(spec JobSpec) {
		t.Helper()
		var rej *Rejection
		if _, err := s.Submit(spec); !errors.As(err, &rej) {
			t.Fatalf("submit for %s: %v, want a rejection", spec.Tenant, err)
		}
	}
	wait := func(id string, want State) {
		t.Helper()
		if st, err := s.Wait(ctx, id); err != nil || st.State != want {
			t.Fatalf("job %s: %+v, %v; want %s", id, st, err, want)
		}
	}
	gram := func(tenant string) JobSpec {
		return JobSpec{Tenant: tenant, Workload: "gram", Params: workload.Params{"rows": 24, "cols": 16}}
	}
	slow := func(tenant string) JobSpec { return foreverJob(t, tenant) }

	// Done, one per tenant; failed, a program asked for an output it never
	// assigns.
	wait(submit(gram("a")), StateDone)
	wait(submit(gram("b")), StateDone)
	built, err := workload.DefaultRegistry().Build("gram", 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	wait(submit(JobSpec{Tenant: "b", Program: built.Program, Inputs: built.Inputs, Outputs: []string{"nope"}}), StateFailed)

	// One slot: a's slow job runs, the next two fill the queue.
	run := submit(slow("a"))
	waitRunning(t, s, run)
	queuedB := submit(slow("b"))
	queuedA := submit(slow("a"))
	reject(gram("a")) // queue_full
	reject(gram("b")) // tenant_quota: b already has its one queued job
	if st, err := s.Cancel(queuedA); err != nil || st.State != StateCanceled {
		t.Fatalf("cancel while queued: %+v, %v", st, err)
	}
	if _, err := s.Cancel(run); err != nil {
		t.Fatal(err)
	}
	wait(run, StateCanceled)
	waitRunning(t, s, queuedB)
	shed := submit(slow("a"))

	// A forced stop: draining first, so b's next job is refused, then the
	// deadline passes, shedding a's queued job and cancelling b's running one.
	stopCtx, expire := context.WithCancel(context.Background())
	stopped := make(chan error, 1)
	go func() { stopped <- s.Stop(stopCtx) }()
	for !s.Draining() {
		runtime.Gosched()
	}
	reject(gram("b")) // draining
	expire()
	if err := <-stopped; err == nil {
		t.Fatal("forced stop reported a clean drain")
	}
	wait(queuedB, StateCanceled)
	wait(shed, StateCanceled)

	// The job table.
	byState := map[State]int64{}
	type tenantCount struct{ jobs, terminal int64 }
	byTenant := map[string]*tenantCount{"a": {}, "b": {}}
	for _, st := range s.ListJobs("", "") {
		byState[st.State]++
		tc := byTenant[st.Tenant]
		tc.jobs++
		if st.State.Terminal() {
			tc.terminal++
		}
	}
	if byState[StateDone] != 2 || byState[StateFailed] != 1 || byState[StateCanceled] != 4 || len(byState) != 3 {
		t.Fatalf("job table states: %v", byState)
	}

	// The labeled families.
	snap := s.Metrics().Snapshot()
	famSubmitted := map[string]int64{}
	for _, c := range snap.CounterVecs["serve.tenant.jobs.submitted"] {
		famSubmitted[c.Labels["tenant"]] += c.Value
	}
	famFinished, famByState := map[string]int64{}, map[State]int64{}
	for _, c := range snap.CounterVecs["serve.tenant.jobs.finished"] {
		famFinished[c.Labels["tenant"]] += c.Value
		famByState[State(c.Labels["state"])] += c.Value
	}
	famRejected, famReasons := map[string]int64{}, map[string]int64{}
	for _, c := range snap.CounterVecs["serve.tenant.rejected"] {
		famRejected[c.Labels["tenant"]] += c.Value
		famReasons[c.Labels["tenant"]+"/"+c.Labels["reason"]] += c.Value
	}
	wantReasons := map[string]int64{"a/queue_full": 1, "b/tenant_quota": 1, "b/draining": 1}
	if len(famReasons) != len(wantReasons) {
		t.Errorf("rejections by tenant/reason: %v, want %v", famReasons, wantReasons)
	}
	for k, n := range wantReasons {
		if famReasons[k] != n {
			t.Errorf("rejections by tenant/reason: %v, want %v", famReasons, wantReasons)
		}
	}
	merge := func(family string) obs.HistogramSnapshot {
		var m obs.HistogramSnapshot
		for _, h := range snap.HistogramVecs[family] {
			if m.Counts == nil {
				m.Bounds, m.Counts = h.Hist.Bounds, make([]int64, len(h.Hist.Counts))
			}
			for i, c := range h.Hist.Counts {
				m.Counts[i] += c
			}
			m.Count += h.Hist.Count
			m.Sum += h.Hist.Sum
		}
		return m
	}
	queueFam, runFam := merge("serve.tenant.queue.wait.seconds"), merge("serve.tenant.job.run.seconds")

	// /v1/stats against both.
	st := s.Stats()
	var jobs int64
	for _, tc := range byTenant {
		jobs += tc.jobs
	}
	if st.Submitted != jobs || st.Submitted != famSubmitted["a"]+famSubmitted["b"] {
		t.Errorf("Submitted %d, job table %d, families %v", st.Submitted, jobs, famSubmitted)
	}
	for _, c := range []struct {
		state State
		got   int64
	}{{StateDone, st.Completed}, {StateFailed, st.Failed}, {StateCanceled, st.Canceled}} {
		if c.got != byState[c.state] || c.got != famByState[c.state] {
			t.Errorf("%s: stats %d, job table %d, family %d", c.state, c.got, byState[c.state], famByState[c.state])
		}
	}
	if st.Rejected != 3 || st.Rejected != famRejected["a"]+famRejected["b"] {
		t.Errorf("Rejected %d, families %v", st.Rejected, famRejected)
	}
	if st.QueueDepth != 0 || st.Running != 0 {
		t.Errorf("after Stop: queue depth %d, running %d", st.QueueDepth, st.Running)
	}
	if len(st.Tenants) != 2 {
		t.Errorf("tenants: %+v", st.Tenants)
	}
	for name, tc := range byTenant {
		ts := st.Tenants[name]
		if ts.Submitted != tc.jobs || ts.Submitted != famSubmitted[name] ||
			ts.Completed != tc.terminal || ts.Completed != famFinished[name] ||
			ts.Rejected != famRejected[name] ||
			ts.Queued != 0 || ts.Running != 0 || ts.RunningBytes != 0 {
			t.Errorf("tenant %s: stats %+v, job table %+v, families submitted %d finished %d rejected %d",
				name, ts, *tc, famSubmitted[name], famFinished[name], famRejected[name])
		}
	}
	// Five jobs started: both done, the failed one and both cancelled while
	// running.
	relEq := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b)) }
	for _, c := range []struct {
		name          string
		count         int64
		sum           float64
		p50, p95, p99 float64
		fam           obs.HistogramSnapshot
	}{
		{"queue wait", st.QueueWaitCount, st.QueueWaitSum, st.QueueWaitP50Sec, st.QueueWaitP95Sec, st.QueueWaitP99Sec, queueFam},
		{"run", st.RunCount, st.RunSum, st.RunP50Sec, st.RunP95Sec, st.RunP99Sec, runFam},
	} {
		if c.count != 5 || c.count != c.fam.Count {
			t.Errorf("%s count %d, family %d, want 5", c.name, c.count, c.fam.Count)
		}
		if !relEq(c.sum, c.fam.Sum) {
			t.Errorf("%s sum %v, family %v", c.name, c.sum, c.fam.Sum)
		}
		if c.p50 != c.fam.Quantile(0.50) || c.p95 != c.fam.Quantile(0.95) || c.p99 != c.fam.Quantile(0.99) {
			t.Errorf("%s quantiles %v/%v/%v, family %v/%v/%v", c.name, c.p50, c.p95, c.p99,
				c.fam.Quantile(0.50), c.fam.Quantile(0.95), c.fam.Quantile(0.99))
		}
	}
}

// TestDefaultLoggerFormatsNothing: the default logger enables no level, so
// the lifecycle's log calls return before formatting a record.
func TestDefaultLoggerFormatsNothing(t *testing.T) {
	l := Options{}.withDefaults().Logger
	for _, level := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
		if l.Enabled(context.Background(), level) {
			t.Errorf("the default logger enables %s", level)
		}
	}
}
