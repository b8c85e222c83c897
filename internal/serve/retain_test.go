package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dmac/internal/workload"
)

// runDone submits a job, waits for it and fails the test unless it is done.
func runDone(t *testing.T, s *Service, spec JobSpec) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = s.Wait(ctx, st.ID); err != nil || st.State != StateDone {
		t.Fatalf("job %s: state %s, err %v %q", st.ID, st.State, err, st.Error)
	}
	return st
}

func setResultBudget(s *Service, b int64) {
	s.mu.Lock()
	s.resultBudget = b
	s.mu.Unlock()
}

func gramSpec(seed float64) JobSpec {
	return JobSpec{Tenant: "alice", Workload: "gram",
		Params: workload.Params{"rows": 40, "cols": 24, "seed": seed}}
}

// TestResultRetentionEvictsOldestFirst: with room for two and a half results
// of one size, each finished job evicts the oldest kept result, and only it.
// What is kept never passes the budget plus the newest result. An evicted
// job keeps its status, scalars and trace; Result says ErrResultEvicted and
// the HTTP result view 410 Gone, while its plain status stays 200.
func TestResultRetentionEvictsOldestFirst(t *testing.T) {
	opts := testOptions()
	opts.Slots = 1
	s := newTestService(t, opts)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	first := runDone(t, s, gramSpec(1))
	res, err := s.Result(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	size := res.Grids["G"].MemBytes()
	if got := s.Stats().ResultsRetainedBytes; got != size {
		t.Fatalf("one result of %d bytes kept, stats say %d", size, got)
	}
	budget := 5 * size / 2
	setResultBudget(s, budget)

	ids := []string{first.ID}
	statuses := map[string]JobStatus{first.ID: first}
	for seed := 2; seed <= 5; seed++ {
		st := runDone(t, s, gramSpec(float64(seed)))
		ids = append(ids, st.ID)
		statuses[st.ID] = st
		// After job n (1-based) the newest two are kept.
		for i, id := range ids {
			_, err := s.Result(id)
			if kept := i >= len(ids)-2; kept != (err == nil) {
				t.Fatalf("after job %d: job %d Result err = %v, want kept=%v", len(ids), i+1, err, kept)
			}
			if err != nil && !errors.Is(err, ErrResultEvicted) {
				t.Fatalf("job %d: Result err = %v, want ErrResultEvicted", i+1, err)
			}
		}
		if got := s.Stats().ResultsRetainedBytes; got != 2*size || got > budget+size {
			t.Fatalf("after job %d: %d bytes kept, want %d (budget %d)", len(ids), got, 2*size, budget)
		}
	}
	snap := s.Metrics().Snapshot()
	if got := snap.Counters["serve.results.evicted"]; got != 3 {
		t.Errorf("serve.results.evicted = %d, want 3", got)
	}
	if got := snap.Gauges["serve.results.retained.bytes"]; got != float64(2*size) {
		t.Errorf("serve.results.retained.bytes = %v, want %d", got, 2*size)
	}

	for _, id := range ids[:3] {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		want := statuses[id]
		if st.State != StateDone || st.Iterations != want.Iterations || st.CommBytes != want.CommBytes {
			t.Errorf("%s: evicted job's status changed: %+v, was %+v", id, st, want)
		}
		if v, ok := st.Scalars["gram_sum"]; !ok || math.Float64bits(v) != math.Float64bits(want.Scalars["gram_sum"]) {
			t.Errorf("%s: evicted job's scalar gram_sum = %v (present %v), was %v", id, v, ok, want.Scalars["gram_sum"])
		}
		if spans, err := s.JobTrace(id); err != nil || len(spans) == 0 {
			t.Errorf("%s: evicted job's trace: %d spans, err %v", id, len(spans), err)
		}
		if code := getJSON(t, srv.URL+"/v1/jobs/"+id+"?include=result", nil); code != http.StatusGone {
			t.Errorf("%s: result of an evicted job = %d, want 410", id, code)
		}
		if code := getJSON(t, srv.URL+"/v1/jobs/"+id, nil); code != http.StatusOK {
			t.Errorf("%s: status of an evicted job = %d, want 200", id, code)
		}
	}
	var kept JobResponse
	if code := getJSON(t, srv.URL+"/v1/jobs/"+ids[4]+"?include=result", &kept); code != http.StatusOK || kept.Outputs["G"].Rows != 24 {
		t.Errorf("result of a kept job = %d with outputs %v, want 200 and a 24-row G", code, kept.Outputs)
	}
	var stats Stats
	if code := getJSON(t, srv.URL+"/v1/stats", &stats); code != http.StatusOK || stats.ResultsRetainedBytes != 2*size {
		t.Errorf("/v1/stats results_retained_bytes = %d (status %d), want %d", stats.ResultsRetainedBytes, code, 2*size)
	}
}

// TestNewestResultOutlivesTheBudget: a result larger than the whole budget
// is kept until the next job finishes, and then evicted by it.
func TestNewestResultOutlivesTheBudget(t *testing.T) {
	opts := testOptions()
	opts.Slots = 1
	s := newTestService(t, opts)
	setResultBudget(s, 1)
	a := runDone(t, s, gramSpec(1))
	res, err := s.Result(a.ID)
	if err != nil {
		t.Fatalf("the newest result was evicted although no later job finished: %v", err)
	}
	if got := s.Stats().ResultsRetainedBytes; got != res.Grids["G"].MemBytes() {
		t.Fatalf("%d bytes kept, want the newest result's %d", got, res.Grids["G"].MemBytes())
	}
	b := runDone(t, s, gramSpec(2))
	if _, err := s.Result(a.ID); !errors.Is(err, ErrResultEvicted) {
		t.Errorf("older result over the budget: Result err = %v, want ErrResultEvicted", err)
	}
	if _, err := s.Result(b.ID); err != nil {
		t.Errorf("newest result: %v", err)
	}
	// A client that took the first result before its eviction still holds
	// its grids.
	if res.Grids["G"] == nil {
		t.Error("eviction took the grids out of a Result a client holds")
	}
}

// TestSlotInterleavesJobTypes: the three registry job types, interleaved on
// one slot, so each job runs on a pool holding the blocks the other types'
// jobs released, give the bits a fresh engine gives.
func TestSlotInterleavesJobTypes(t *testing.T) {
	opts := testOptions()
	opts.Slots = 1
	s := newTestService(t, opts)
	type job struct {
		name   string
		params workload.Params
	}
	var jobs []job
	for seed := 1; seed <= 3; seed++ {
		jobs = append(jobs,
			job{"pagerank", workload.Params{"nodes": 48, "iters": 3, "degree": 4, "seed": float64(seed)}},
			job{"gram", workload.Params{"rows": 40, "cols": 24, "seed": float64(seed)}},
			job{"blend", workload.Params{"n": 32, "k": 6, "iters": 2, "seed": float64(seed)}})
	}
	for _, j := range jobs {
		label := fmt.Sprintf("%s %v", j.name, j.params)
		st := runDone(t, s, JobSpec{Tenant: "alice", Workload: j.name, Params: j.params})
		res, err := s.Result(st.ID)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		grids, scalars := soloRun(t, opts, j.name, j.params, st.BlockSize)
		if d := resultDiff(res, grids, scalars); d != "" {
			t.Errorf("%s differs from a fresh engine's: %s", label, d)
		}
	}
}

// setJobLimit shrinks the service's job-record bound for a test.
func setJobLimit(s *Service, n int) {
	s.mu.Lock()
	s.jobLimit = n
	s.mu.Unlock()
}

// TestJobRecordsForgetOldestFinishedFirst: past the record bound the service
// forgets the oldest finished job, and only it; a forgotten job is unknown
// (404), while a remembered one whose result was evicted answers 410 for the
// result and 200 for its status. A queued or running job is never forgotten,
// however far past the bound they alone hold the table.
func TestJobRecordsForgetOldestFinishedFirst(t *testing.T) {
	opts := testOptions()
	opts.Slots = 1
	s := newTestService(t, opts)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	setJobLimit(s, 2)
	setResultBudget(s, 1)

	var ids []string
	for seed := 1; seed <= 4; seed++ {
		ids = append(ids, runDone(t, s, gramSpec(float64(seed))).ID)
		for i, id := range ids {
			_, err := s.Status(id)
			if known := i >= len(ids)-2; known != (err == nil) {
				t.Fatalf("after job %d: job %d Status err = %v, want known=%v", len(ids), i+1, err, known)
			}
			if err != nil && !errors.Is(err, ErrUnknownJob) {
				t.Fatalf("job %d: Status err = %v, want ErrUnknownJob", i+1, err)
			}
		}
	}
	if _, err := s.Result(ids[0]); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Result of a forgotten job = %v, want ErrUnknownJob", err)
	}
	for _, c := range []struct {
		url  string
		want int
	}{
		{"/v1/jobs/" + ids[1], http.StatusNotFound},
		{"/v1/jobs/" + ids[1] + "?include=result", http.StatusNotFound},
		{"/v1/jobs/" + ids[2], http.StatusOK},
		{"/v1/jobs/" + ids[2] + "?include=result", http.StatusGone},
		{"/v1/jobs/" + ids[3] + "?include=result", http.StatusOK},
	} {
		if code := getJSON(t, srv.URL+c.url, nil); code != c.want {
			t.Errorf("GET %s = %d, want %d", c.url, code, c.want)
		}
	}
	if got := len(s.ListJobs("", "")); got != 2 {
		t.Errorf("%d jobs listed, want the 2 remembered", got)
	}

	setJobLimit(s, 1)
	running, err := s.Submit(foreverJob(t, "alice"))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, running.ID)
	queued, err := s.Submit(gramSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	canceled, err := s.Submit(gramSpec(6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(canceled.ID); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{running.ID, queued.ID} {
		if st, err := s.Status(id); err != nil || st.State.Terminal() {
			t.Errorf("live job %s: %+v, %v; want it remembered and live", id, st, err)
		}
	}
	for _, id := range append(ids, canceled.ID) {
		if _, err := s.Status(id); !errors.Is(err, ErrUnknownJob) {
			t.Errorf("finished job %s: Status err = %v, want forgotten past the bound", id, err)
		}
	}
	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if st, err := s.Wait(ctx, queued.ID); err != nil || st.State != StateDone {
		t.Fatalf("queued job: %+v, %v", st, err)
	}
	if _, err := s.Status(running.ID); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("the canceled running job: Status err = %v, want forgotten", err)
	}
	res, err := s.Result(queued.ID)
	if err != nil {
		t.Fatalf("the newest job: Result err = %v, want its result", err)
	}
	// The forgotten jobs' kept results left the budget with them.
	if got, want := s.Stats().ResultsRetainedBytes, res.Grids["G"].MemBytes(); got != want {
		t.Errorf("%d result bytes kept, want the one remembered result's %d", got, want)
	}
}
