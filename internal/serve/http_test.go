package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func postJob(t *testing.T, url string, body string) (*http.Response, JobResponse, errorResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr JobResponse
	var er errorResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
	} else {
		_ = json.NewDecoder(resp.Body).Decode(&er)
	}
	return resp, jr, er
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestHTTPLifecycle exercises the whole JSON API: submit, wait for done,
// fetch the result summary, and read service stats.
func TestHTTPLifecycle(t *testing.T) {
	s := newTestService(t, testOptions())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	if code := getJSON(t, srv.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	var workloads []struct {
		Name string `json:"name"`
	}
	if code := getJSON(t, srv.URL+"/v1/workloads", &workloads); code != http.StatusOK || len(workloads) != 3 {
		t.Fatalf("workloads = %d entries (code %d)", len(workloads), code)
	}

	resp, jr, er := postJob(t, srv.URL,
		`{"tenant":"alice","workload":"pagerank","params":{"nodes":48,"iters":2,"seed":1}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %+v", resp.StatusCode, er)
	}
	if jr.ID == "" || jr.State != StateQueued {
		t.Fatalf("submit response: %+v", jr)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := s.Wait(ctx, jr.ID); err != nil {
		t.Fatalf("job did not finish: %v", err)
	}
	var final JobResponse
	if code := getJSON(t, srv.URL+"/v1/jobs/"+jr.ID+"?include=result", &final); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if final.State != StateDone {
		t.Fatalf("final state %s: %s", final.State, final.Error)
	}
	// The 48-node graph's 48 x 3 = 144 expected entries pay for one task
	// (cost.MinTaskEntries), so Eq. 3 on one thread keeps it whole.
	if final.BlockSize != 48 {
		t.Errorf("block_size = %d, want 48", final.BlockSize)
	}
	out, ok := final.Outputs["rank"]
	if !ok {
		t.Fatal("result did not include the rank output")
	}
	if out.Rows != 1 || out.Cols != 48 || len(out.Data) != 48 {
		t.Errorf("rank summary = %dx%d with %d inline cells", out.Rows, out.Cols, len(out.Data))
	}
	// PageRank mass is conserved: the vector sums to ~1.
	if out.Sum < 0.99 || out.Sum > 1.01 {
		t.Errorf("rank sum = %v, want ~1", out.Sum)
	}

	var stats Stats
	if code := getJSON(t, srv.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if stats.Completed < 1 || stats.Submitted < 1 || stats.QueueWaitCount < 1 {
		t.Errorf("stats not sane: %+v", stats)
	}
	if _, ok := stats.Tenants["alice"]; !ok {
		t.Error("stats missing the submitting tenant")
	}

	if code := getJSON(t, srv.URL+"/v1/jobs/job-999999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", code)
	}
}

// TestHTTPQuotaRejection maps an over-quota submit to HTTP 429 with a
// Retry-After header while another tenant is still admitted.
func TestHTTPQuotaRejection(t *testing.T) {
	opts := testOptions()
	opts.Slots = 1
	opts.Quotas = map[string]TenantQuota{"greedy": {MaxConcurrent: 1, MaxQueued: 1}}
	s := newTestService(t, opts)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// The single slot stays busy until the end of the test, so the first
	// submit below is queued and the second is over quota.
	busy, err := s.Submit(foreverJob(t, "greedy"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Cancel(busy.ID)
	job := `{"tenant":"greedy","workload":"pagerank","params":{"nodes":256,"iters":2000},"deadline_sec":2}`
	var saw429 bool
	for i := 0; i < 5; i++ {
		resp, _, er := postJob(t, srv.URL, job)
		if resp.StatusCode == http.StatusTooManyRequests {
			saw429 = true
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After header")
			}
			if er.RetryAfterSec <= 0 {
				t.Errorf("429 body: %+v", er)
			}
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, resp.StatusCode)
		}
	}
	if !saw429 {
		t.Fatal("greedy tenant never got a 429")
	}
	resp, jr, er := postJob(t, srv.URL, `{"tenant":"modest","workload":"gram"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("modest tenant blocked: %d %+v", resp.StatusCode, er)
	}
	_ = jr
}

// TestHTTPCancelAndValidation covers DELETE and the 400 paths.
func TestHTTPCancelAndValidation(t *testing.T) {
	opts := testOptions()
	opts.Slots = 1
	s := newTestService(t, opts)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// The single slot stays busy until the end of the test.
	busy, err := s.Submit(foreverJob(t, "t"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Cancel(busy.ID)
	_, jr, _ := postJob(t, srv.URL, `{"tenant":"t","workload":"pagerank","params":{"nodes":256,"iters":200}}`) // queued behind the busy job
	if jr.ID == "" {
		t.Fatal("second submit not accepted")
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+jr.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out.State != StateCanceled {
		t.Fatalf("cancel = %d state %s", resp.StatusCode, out.State)
	}

	for _, bad := range []string{
		`{"workload":"gram"}`,            // no tenant
		`{"tenant":"t"}`,                 // no workload
		`{"tenant":"t","workload":"xx"}`, // unknown workload
		`{not json`,
	} {
		resp, _, _ := postJob(t, srv.URL, bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s = %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestHTTPDraining: during Stop, /healthz flips to 503 and submits are shed
// with a draining error.
func TestHTTPDraining(t *testing.T) {
	opts := testOptions()
	opts.Slots = 1
	s := newTestService(t, opts)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	if resp, _, _ := postJob(t, srv.URL,
		`{"tenant":"t","workload":"pagerank","params":{"nodes":256,"iters":100}}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	stopped := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		stopped <- s.Stop(ctx)
	}()
	var sawDraining bool
	for i := 0; i < 2000; i++ {
		if code := getJSON(t, srv.URL+"/healthz", nil); code == http.StatusServiceUnavailable {
			sawDraining = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !sawDraining {
		t.Error("healthz never reported draining")
	}
	resp, _, _ := postJob(t, srv.URL, `{"tenant":"t","workload":"gram"}`)
	if resp.StatusCode != http.StatusServiceUnavailable && resp.StatusCode != http.StatusBadRequest {
		t.Errorf("submit while draining = %d, want 503 (or 400 once stopped)", resp.StatusCode)
	}
	if err := <-stopped; err != nil {
		t.Fatalf("drain failed: %v", err)
	}
}
