package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// goldenRegistry builds a small fixed registry covering every metric kind,
// plain and labeled.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("serve.jobs.submitted").Add(12)
	r.Gauge("serve.queue.depth").Set(3)
	h := r.Histogram("serve.queue.wait.seconds", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(30)
	cv := r.CounterVec("serve.tenant.jobs.finished", "tenant", "state")
	cv.With("alice", "done").Add(7)
	cv.With("bob", "failed").Add(1)
	r.GaugeVec("serve.tenant.queue.depth", "tenant").With("alice").Set(2)
	hv := r.HistogramVec("serve.tenant.job.run.seconds", []float64{1, 5}, "tenant")
	hv.With("alice").Observe(0.5)
	hv.With("alice").Observe(2)
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, goldenRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden.prom")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -update` to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from %s:\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

func TestPromLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("c", "path").With("a\\b\"c\nd").Inc()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := `dmac_c_total{path="a\\b\"c\nd"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("exposition missing escaped sample %q:\n%s", want, buf.String())
	}
	// The escaped value must stay on one physical line.
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "dmac_c_total") && !strings.HasSuffix(line, " 1") {
			t.Fatalf("sample line broken by raw newline: %q", line)
		}
	}
}

func TestPromNameSanitization(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.admit.rejected.queue-full").Inc()
	r.Gauge("kernel.workers").Set(1.5)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"dmac_serve_admit_rejected_queue_full_total 1",
		"dmac_kernel_workers 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// TestWritePrometheusRejectsNameCollision: two families that land on one
// exposition name are an error and nothing is written, whichever kinds they
// are; the same dotted name as a counter and a gauge is no collision, because
// the counter gets its _total suffix.
func TestWritePrometheusRejectsNameCollision(t *testing.T) {
	for name, fill := range map[string]func(r *Registry){
		"gauge+histogram": func(r *Registry) {
			r.Gauge("kernel.mul.gflops").Set(1.5)
			r.Histogram("kernel.mul.gflops", GFLOPSBuckets).Observe(1.5)
		},
		"counter+countervec": func(r *Registry) {
			r.Counter("jobs").Inc()
			r.CounterVec("jobs", "tenant").With("a").Inc()
		},
		"sanitized": func(r *Registry) {
			r.Gauge("queue.depth").Set(1)
			r.Gauge("queue_depth").Set(2)
		},
	} {
		r := NewRegistry()
		fill(r)
		var buf bytes.Buffer
		if err := WritePrometheus(&buf, r.Snapshot()); err == nil {
			t.Errorf("%s: no error; wrote:\n%s", name, buf.String())
		} else if buf.Len() != 0 {
			t.Errorf("%s: wrote %d bytes before failing with %v", name, buf.Len(), err)
		}
	}
	r := NewRegistry()
	r.Counter("jobs").Inc()
	r.Gauge("jobs").Set(3)
	if err := WritePrometheus(&bytes.Buffer{}, r.Snapshot()); err != nil {
		t.Errorf("counter and gauge of one name: %v", err)
	}
}

// parseProm is a minimal exposition-format reader: TYPE lines plus
// name{labels} value samples. It is deliberately independent of the writer's
// internals so round-trip tests exercise the actual format.
func parseProm(t *testing.T, data []byte) (types map[string]string, samples map[string]float64) {
	t.Helper()
	types = map[string]string{}
	samples = map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return types, samples
}

// TestPromHistogramRoundTrip pins that a scraped histogram's count and sum
// equal the MetricsSnapshot's, and that bucket counts are cumulative.
func TestPromHistogramRoundTrip(t *testing.T) {
	r := goldenRegistry()
	snap := r.Snapshot()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, snap); err != nil {
		t.Fatal(err)
	}
	types, samples := parseProm(t, buf.Bytes())

	if types["dmac_serve_queue_wait_seconds"] != "histogram" {
		t.Fatalf("histogram TYPE missing: %v", types)
	}
	hs := snap.Histograms["serve.queue.wait.seconds"]
	if got := samples["dmac_serve_queue_wait_seconds_count"]; got != float64(hs.Count) {
		t.Fatalf("scraped count %v != snapshot %d", got, hs.Count)
	}
	if got := samples["dmac_serve_queue_wait_seconds_sum"]; got != hs.Sum {
		t.Fatalf("scraped sum %v != snapshot %v", got, hs.Sum)
	}
	if got := samples[`dmac_serve_queue_wait_seconds_bucket{le="+Inf"}`]; got != float64(hs.Count) {
		t.Fatalf("+Inf bucket %v != count %d", got, hs.Count)
	}
	// Cumulative: le=1 includes le=0.1's observation.
	if got := samples[`dmac_serve_queue_wait_seconds_bucket{le="1"}`]; got != 2 {
		t.Fatalf("le=1 bucket = %v, want cumulative 2", got)
	}

	// Labeled histogram children keep per-child count/sum.
	lh := snap.HistogramVecs["serve.tenant.job.run.seconds"][0]
	if got := samples[`dmac_serve_tenant_job_run_seconds_count{tenant="alice"}`]; got != float64(lh.Hist.Count) {
		t.Fatalf("labeled count %v != snapshot %d", got, lh.Hist.Count)
	}
	if got := samples[`dmac_serve_tenant_job_run_seconds_sum{tenant="alice"}`]; got != lh.Hist.Sum {
		t.Fatalf("labeled sum %v != snapshot %v", got, lh.Hist.Sum)
	}

	// Counters and counter families carry the _total suffix and counter TYPE.
	if types["dmac_serve_jobs_submitted_total"] != "counter" ||
		types["dmac_serve_tenant_jobs_finished_total"] != "counter" {
		t.Fatalf("counter TYPEs missing: %v", types)
	}
	if got := samples[`dmac_serve_tenant_jobs_finished_total{state="done",tenant="alice"}`]; got != 7 {
		t.Fatalf("labeled counter = %v, want 7", got)
	}
}

// TestPromDeterministic pins byte-identical output across repeated renders
// (map iteration must not leak into the exposition).
func TestPromDeterministic(t *testing.T) {
	r := goldenRegistry()
	var first bytes.Buffer
	if err := WritePrometheus(&first, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		var again bytes.Buffer
		if err := WritePrometheus(&again, r.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, first.String(), again.String())
		}
	}
}

func TestQuantileLinearInterpolation(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	// 10 observations uniformly in (1,2]: quantiles interpolate inside it.
	for i := 0; i < 10; i++ {
		h.Observe(1.5)
	}
	if got := h.Quantile(0.5); got != 1.5 {
		t.Fatalf("q0.5 = %v, want 1.5 (midpoint of (1,2])", got)
	}
	if got := h.Quantile(1); got != 2.0 {
		t.Fatalf("q1 = %v, want 2.0 (upper edge)", got)
	}

	// First bucket interpolates from 0.
	h2 := newHistogram([]float64{10})
	h2.Observe(1)
	h2.Observe(2)
	if got := h2.Quantile(0.5); got != 5.0 {
		t.Fatalf("q0.5 = %v, want 5.0 (half of first bucket)", got)
	}

	// Overflow clamps to the highest bound.
	h3 := newHistogram([]float64{1, 2})
	h3.Observe(100)
	if got := h3.Quantile(0.99); got != 2.0 {
		t.Fatalf("overflow quantile = %v, want clamp to 2.0", got)
	}

	// Spread across buckets: exact rank boundaries.
	h4 := newHistogram([]float64{1, 2, 4})
	h4.Observe(0.5) // bucket (0,1]
	h4.Observe(1.5) // bucket (1,2]
	h4.Observe(3)   // bucket (2,4]
	h4.Observe(3.5) // bucket (2,4]
	if got := h4.Quantile(0.25); got != 1.0 {
		t.Fatalf("q0.25 = %v, want 1.0", got)
	}
	if got := h4.Quantile(0.75); got != 3.0 {
		t.Fatalf("q0.75 = %v, want 3.0 (half through (2,4])", got)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile != 0")
	}
	h := newHistogram([]float64{1, 2})
	if h.Quantile(0.9) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	h.Observe(1.5)
	if got := h.Quantile(-1); got < 1 || got > 2 {
		t.Fatalf("clamped q<0 out of bucket: %v", got)
	}
	if got := h.Quantile(2); got != 2 {
		t.Fatalf("clamped q>1 = %v, want 2", got)
	}
}

// BenchmarkWritePrometheus sizes the scrape path for a realistic registry.
func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 50; i++ {
		r.Counter(fmt.Sprintf("c.%d", i)).Add(int64(i))
	}
	hv := r.HistogramVec("h", SecondsBuckets, "tenant")
	for i := 0; i < 10; i++ {
		hv.With(fmt.Sprintf("t%d", i)).Observe(0.1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
			b.Fatal(err)
		}
	}
}
