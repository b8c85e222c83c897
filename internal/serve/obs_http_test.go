package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dmac/internal/obs"
)

// runJobToDone submits a small registry workload and waits for completion.
func runJobToDone(t *testing.T, s *Service, tenant string) JobStatus {
	t.Helper()
	return runDone(t, s, JobSpec{Tenant: tenant, Workload: "gram"})
}

// TestMetricsEndpoint: GET /metrics serves Prometheus text exposition with
// per-tenant labeled samples, scrapeable live (no flags, no restart).
func TestMetricsEndpoint(t *testing.T) {
	s := newTestService(t, testOptions())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	runJobToDone(t, s, "alice")
	runJobToDone(t, s, "bob")

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Fatalf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, want := range []string{
		"# TYPE dmac_serve_tenant_jobs_finished_total counter\n",
		`dmac_serve_tenant_jobs_finished_total{state="done",tenant="alice",workload="gram"} 1`,
		`dmac_serve_tenant_jobs_finished_total{state="done",tenant="bob",workload="gram"} 1`,
		"# TYPE dmac_serve_tenant_queue_wait_seconds histogram\n",
		`dmac_serve_tenant_queue_wait_seconds_bucket{tenant="alice",le="+Inf"} 1`,
		`dmac_serve_tenant_job_gflops_bucket{tenant="alice",le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Every non-comment line is "name{labels} value" or "name value" with a
	// parseable float — a malformed line breaks real scrapers.
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 1 {
			t.Fatalf("malformed sample line %q", line)
		}
	}
}

// TestSLOEndpoint: GET /v1/slo reports per-tenant windows with burn rates.
func TestSLOEndpoint(t *testing.T) {
	opts := testOptions()
	opts.SLO = SLOConfig{Objective: 0.9, LatencySec: 0.000001}
	s := newTestService(t, opts)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Any real job takes longer than 1µs, so it burns budget as "slow" and
	// the burn rate is deterministically positive.
	runJobToDone(t, s, "alice")

	var snap SLOSnapshot
	if code := getJSON(t, srv.URL+"/v1/slo", &snap); code != http.StatusOK {
		t.Fatalf("GET /v1/slo = %d", code)
	}
	ten, ok := snap.Tenants["alice"]
	if !ok {
		t.Fatalf("tenant alice missing: %+v", snap)
	}
	if ten.Objective != 0.9 {
		t.Fatalf("objective = %v", ten.Objective)
	}
	for _, name := range []string{"5m", "1h"} {
		w, ok := ten.Windows[name]
		if !ok {
			t.Fatalf("window %s missing", name)
		}
		if w.Count != 1 || w.Slow != 1 {
			t.Fatalf("window %s: %+v", name, w)
		}
		if w.BurnRate < 9.99 || w.BurnRate > 10.01 { // 1.0 bad / 0.1 budget
			t.Fatalf("window %s burn rate = %v, want ~10", name, w.BurnRate)
		}
	}
}

// TestJobsListEndpoint: GET /v1/jobs lists jobs with tenant and state
// filters, and rejects unknown states.
func TestJobsListEndpoint(t *testing.T) {
	s := newTestService(t, testOptions())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	a := runJobToDone(t, s, "alice")
	runJobToDone(t, s, "bob")

	type listResp struct {
		Jobs  []JobStatus `json:"jobs"`
		Count int         `json:"count"`
	}
	var all listResp
	if code := getJSON(t, srv.URL+"/v1/jobs", &all); code != http.StatusOK {
		t.Fatalf("GET /v1/jobs = %d", code)
	}
	if all.Count != 2 || len(all.Jobs) != 2 {
		t.Fatalf("list all: %+v", all)
	}

	var alice listResp
	getJSON(t, srv.URL+"/v1/jobs?tenant=alice", &alice)
	if alice.Count != 1 || alice.Jobs[0].ID != a.ID {
		t.Fatalf("tenant filter: %+v", alice)
	}

	var done listResp
	getJSON(t, srv.URL+"/v1/jobs?state=done", &done)
	if done.Count != 2 {
		t.Fatalf("state filter: %+v", done)
	}
	var none listResp
	getJSON(t, srv.URL+"/v1/jobs?state=canceled", &none)
	if none.Count != 0 {
		t.Fatalf("canceled filter: %+v", none)
	}

	if code := getJSON(t, srv.URL+"/v1/jobs?state=bogus", nil); code != http.StatusBadRequest {
		t.Fatalf("bogus state = %d, want 400", code)
	}
}

// TestTraceEndpoint covers the flight recorder's HTTP surface: 200 with
// Chrome-trace JSON for a recorded job, 404 unknown, 409 not finished, 410
// evicted from the ring.
func TestTraceEndpoint(t *testing.T) {
	opts := testOptions()
	opts.Slots = 1
	opts.DefaultQuota = TenantQuota{MaxConcurrent: 1, MaxQueued: 100}
	opts.FlightRecorderJobs = 1
	s := newTestService(t, opts)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	first := runJobToDone(t, s, "t")

	// Recorded job: valid Chrome trace with the serve/job root span.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + first.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("trace Content-Type = %q", ct)
	}
	events, err := obs.ReadChromeTrace(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("trace not parseable: %v", err)
	}
	foundRoot := false
	for _, ev := range events {
		if ev.Cat == "serve" && ev.Name == "job" {
			foundRoot = true
		}
	}
	if len(events) == 0 || !foundRoot {
		t.Fatalf("trace events: %d, root found: %v", len(events), foundRoot)
	}

	// Unknown job.
	if code := getJSON(t, srv.URL+"/v1/jobs/nope/trace", nil); code != http.StatusNotFound {
		t.Fatalf("unknown trace = %d, want 404", code)
	}

	// Not finished: with one slot and MaxConcurrent 1, the second job is
	// queued behind the first, which only the cancel below ends.
	running, err := s.Submit(foreverJob(t, "t"))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(foreverJob(t, "t"))
	if err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, srv.URL+"/v1/jobs/"+queued.ID+"/trace", nil); code != http.StatusConflict {
		t.Fatalf("queued trace = %d, want 409", code)
	}
	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, _ = s.Wait(ctx, running.ID)

	// Evicted: the ring holds one job; the cancellations above displaced the
	// first job's trace (canceled jobs still produce spans).
	second := runJobToDone(t, s, "t")
	if code := getJSON(t, srv.URL+"/v1/jobs/"+second.ID+"/trace", nil); code != http.StatusOK {
		t.Fatalf("second trace = %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/jobs/"+first.ID+"/trace", nil); code != http.StatusGone {
		t.Fatalf("evicted trace = %d, want 410", code)
	}
}

// TestStatsQuantiles: /v1/stats carries server-side histogram quantiles.
func TestStatsQuantiles(t *testing.T) {
	s := newTestService(t, testOptions())
	runJobToDone(t, s, "t")
	st := s.Stats()
	if st.RunCount < 1 {
		t.Fatalf("run count = %d", st.RunCount)
	}
	if st.RunP50Sec <= 0 || st.RunP95Sec < st.RunP50Sec || st.RunP99Sec < st.RunP95Sec {
		t.Fatalf("run quantiles not monotone: p50=%v p95=%v p99=%v",
			st.RunP50Sec, st.RunP95Sec, st.RunP99Sec)
	}
	if st.QueueWaitP99Sec < st.QueueWaitP50Sec {
		t.Fatalf("queue quantiles not monotone: p50=%v p99=%v",
			st.QueueWaitP50Sec, st.QueueWaitP99Sec)
	}
}
