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

	"dmac/internal/matrix"
	"dmac/internal/workload"
)

// gridBits reports whether two grids hold the same values bit for bit, NaN
// included (GridEqual's tolerance test lets a NaN through).
func gridBits(a, b *matrix.Grid) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	da, db := a.ToDense(), b.ToDense()
	for i := range da {
		if math.Float64bits(da[i]) != math.Float64bits(db[i]) {
			return false
		}
	}
	return true
}

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
		for name, want := range grids {
			if g, ok := res.Grids[name]; !ok || !gridBits(g, want) {
				t.Errorf("%s: output %s differs from a fresh engine's", label, name)
			}
		}
		for name, want := range scalars {
			if got := res.Scalars[name]; math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: scalar %s = %v, a fresh engine gives %v", label, name, got, want)
			}
		}
	}
}
