package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// smoke runs a workload at toy size in this process, traced, the way a child
// process would.
func smoke(t *testing.T, name string, dir string) *Result {
	t.Helper()
	res, err := run(runConfig{
		Workload: name, Seed: 7, Seconds: refSeconds, Trace: true, Smoke: true,
		WorkDir: dir, TraceOut: filepath.Join(dir, name+".json"),
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// TestSmoke runs all five workloads at toy sizes and checks that every
// metric BENCHMARK.json names is emitted, finite and non-negative, that the
// op counts are the configured ones with none failed, and that the counts
// the program makes repeat exactly for a seed. It makes no assertion that
// depends on the core count: run it at GOMAXPROCS=1 and =4.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		res := smoke(t, w.Name, dir)
		// Only the parent process of a real run can know this one.
		res.Values["bench.trace_overhead_share"] = 0
		for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
			v, ok := res.Values[d.Name]
			if !ok {
				// A layer the workload does not exercise may stay
				// unreported (fill makes it 0); an end-to-end metric may not.
				if d.Bound > 0 {
					t.Errorf("%s: end-to-end metric %s not emitted", w.Name, d.Name)
				}
				continue
			}
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Errorf("%s: %s = %v", w.Name, d.Name, v)
			}
		}
		for _, d := range endToEnd {
			if res.Values[d.Name] == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.Name)
			}
		}
		known := map[string]bool{}
		for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
			known[d.Name] = true
		}
		for name := range res.Values {
			if !known[name] {
				t.Errorf("%s: emits %s, which BENCHMARK.json does not name", w.Name, name)
			}
		}
		if want := smokeOps * max(1, w.clients); res.Attempted != want || res.Failed != 0 || !res.Correct {
			t.Errorf("%s: attempted %d (want %d), failed %d, correct %v: %v",
				w.Name, res.Attempted, want, res.Failed, res.Correct, res.Notes)
		}
		if res.Values["bench.ops"] != float64(res.Attempted) {
			t.Errorf("%s: bench.ops = %v, attempted %d", w.Name, res.Values["bench.ops"], res.Attempted)
		}
		if w.wire != (res.Values["transport.wire_bytes"] > 0) {
			t.Errorf("%s: transport.wire_bytes = %v", w.Name, res.Values["transport.wire_bytes"])
		}
		if w.ckpt != (res.Values["engine.ckpt_bytes_per_op"] > 0) {
			t.Errorf("%s: engine.ckpt_bytes_per_op = %v", w.Name, res.Values["engine.ckpt_bytes_per_op"])
		}
		if _, err := os.Stat(filepath.Join(dir, w.Name+".json")); err != nil {
			t.Errorf("%s: no Chrome trace: %v", w.Name, err)
		}

		again := smoke(t, w.Name, dir)
		for _, name := range []string{"comm_bytes", "dist.model_s", "transport.wire_frames"} {
			if a, b := res.Values[name], again.Values[name]; a != b {
				t.Errorf("%s: %s = %v, then %v for the same seed", w.Name, name, a, b)
			}
		}
	}
}

// TestManifest checks that the committed BENCHMARK.json names exactly the
// workloads and metrics this program measures.
func TestManifest(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != refSeconds {
		t.Errorf("run_seconds = %d, op counts are sized for %d", m.RunSeconds, refSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %s, want %s", i, m.Workloads[i].Name, w.Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics, want %d", len(got), kind, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d is %+v, want %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
}

func TestTail(t *testing.T) {
	for n, want := range map[int]float64{5: 50, 50: 80, 200: 95, 1300: 99, 4000: 99, 10000: 99.9} {
		if pct, _ := tail(make([]float64, n)); pct != want {
			t.Errorf("tail of %d samples is p%v, want p%v", n, pct, want)
		}
	}
}
