package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"dmac/internal/dist"
	"dmac/internal/matrix"
	"dmac/internal/workload"
)

// TestServeChaos runs many concurrent jobs from several tenants against
// engines whose clusters inject worker kills and block corruption. The
// contract under fire: every job either completes with a result
// bit-identical to a fault-free single-job run at the job's block size, or
// surfaces a typed error (a *dist.WorkerFailure after retries are
// exhausted) — never a hang, never
// another tenant's data. Run under -race this also audits the shared caches
// and the engine pool for cross-job interference.
func TestServeChaos(t *testing.T) {
	opts := testOptions()
	opts.Slots = 3
	opts.QueueCapacity = 64
	opts.DefaultQuota = TenantQuota{MaxConcurrent: 2, MaxQueued: 32}
	opts.Cluster.Faults = dist.FaultPlan{
		Seed:        42,
		Rate:        0.05,
		TaskFaults:  true,
		CorruptRate: 0.05,
	}
	s := newTestService(t, opts)

	jobs := []struct {
		tenant   string
		workload string
		params   workload.Params
	}{
		{"alice", "pagerank", workload.Params{"nodes": 64, "iters": 4, "seed": 1}},
		{"bob", "gram", workload.Params{"rows": 40, "cols": 24, "seed": 2}},
		{"carol", "blend", workload.Params{"n": 32, "k": 6, "seed": 3}},
		{"alice", "gram", workload.Params{"rows": 32, "cols": 32, "seed": 4}},
		{"bob", "pagerank", workload.Params{"nodes": 48, "iters": 3, "seed": 5}},
		{"carol", "gram", workload.Params{"rows": 40, "cols": 24, "seed": 2}}, // dup of bob's: shared caches under fire
		{"alice", "blend", workload.Params{"n": 24, "k": 4, "seed": 6}},
		{"bob", "blend", workload.Params{"n": 32, "k": 6, "seed": 3}},
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

	// Fault-free oracles, computed once per distinct (workload, params).
	type oracle struct {
		grids   map[string]*matrix.Grid
		scalars map[string]float64
	}
	clean := testOptions()
	oracles := make(map[string]oracle)
	for i, jb := range jobs {
		key := jb.workload + "|" + jb.params.Key()
		if _, ok := oracles[key]; ok {
			continue
		}
		g, sc := soloRun(t, clean, jb.workload, jb.params, sizes[i])
		oracles[key] = oracle{grids: g, scalars: sc}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	completed, faulted := 0, 0
	for i, id := range ids {
		st, err := s.Wait(ctx, id)
		if err != nil {
			t.Fatalf("job %d never finished: %v", i, err)
		}
		switch st.State {
		case StateDone:
			completed++
			res, err := s.Result(id)
			if err != nil {
				t.Fatal(err)
			}
			want := oracles[jobs[i].workload+"|"+jobs[i].params.Key()]
			if d := resultDiff(res, want.grids, want.scalars); d != "" {
				t.Errorf("job %d (%s/%s) diverged from the fault-free run: %s", i, jobs[i].tenant, jobs[i].workload, d)
			}
		case StateFailed:
			// Acceptable only as a typed worker-failure after retries.
			faulted++
			if !st.Faulted {
				t.Errorf("job %d failed without a typed worker failure: %s", i, st.Error)
			}
		default:
			t.Errorf("job %d: unexpected terminal state %s", i, st.State)
		}
	}
	t.Logf("chaos: %d/%d completed bit-identically, %d typed worker failures", completed, len(jobs), faulted)
	if completed == 0 {
		t.Error("no job survived the fault plan; recovery is not working")
	}
}

// TestServeChaosErrClassification pins that a run driven into an
// unrecoverable fault surfaces *dist.WorkerFailure through the service.
func TestServeChaosErrClassification(t *testing.T) {
	opts := testOptions()
	// Scripted kills on both allowed attempts of stage 1 exhaust the retry
	// budget deterministically.
	opts.Cluster.MaxStageRetries = 1
	opts.Cluster.Faults = dist.FaultPlan{Events: []dist.FaultEvent{
		{Stage: 1, Worker: 0, Attempt: 0, Kind: dist.FaultKillBoundary},
		{Stage: 1, Worker: 1, Attempt: 1, Kind: dist.FaultKillBoundary},
	}}
	s := newTestService(t, opts)
	st, err := s.Submit(JobSpec{Tenant: "t", Workload: "gram"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	fin, err := s.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State == StateDone {
		t.Skip("fault plan failed to kill the run; nothing to classify")
	}
	if !fin.Faulted {
		t.Fatalf("failure not classified as worker fault: %s", fin.Error)
	}
	_, rerr := s.Result(st.ID)
	var wf *dist.WorkerFailure
	if !errors.As(rerr, &wf) {
		t.Fatalf("Result error %v does not wrap *dist.WorkerFailure", rerr)
	}
}
