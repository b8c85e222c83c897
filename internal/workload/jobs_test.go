package workload

import (
	"math"
	"runtime"
	"testing"
	"time"

	"dmac/internal/cost"
	"dmac/internal/matrix"
	"dmac/internal/sched"
)

func TestDefaultRegistryBuildsAllWorkloads(t *testing.T) {
	r := DefaultRegistry()
	names := r.Names()
	if len(names) != 3 {
		t.Fatalf("DefaultRegistry has %d workloads, want 3", len(names))
	}
	for _, name := range names {
		job, err := r.Build(name, 8, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(job.Inputs) == 0 {
			t.Errorf("%s: no inputs", name)
		}
		if err := job.Program.Validate(); err != nil {
			t.Errorf("%s: invalid program: %v", name, err)
		}
		if job.Iterations < 1 {
			t.Errorf("%s: Iterations = %d", name, job.Iterations)
		}
		if len(job.Outputs) == 0 {
			t.Errorf("%s: no outputs", name)
		}
		if job.BlockSize != 8 {
			t.Errorf("%s: BlockSize = %d, want the 8 it was built at", name, job.BlockSize)
		}
		if got := job.EstimatedBytes(); got <= job.InputBytes() {
			t.Errorf("%s: EstimatedBytes = %d, want > input bytes %d", name, got, job.InputBytes())
		}
	}
	if _, err := r.Build("nope", 8, nil); err == nil {
		t.Error("unknown workload should error")
	}
}

// TestBuildersAskTheSizerOnce pins how a builder sizes its job: it asks the
// sizer once, with the dimensions of its largest matrix and the density its
// params give that matrix, and cuts every input at the answer.
func TestBuildersAskTheSizerOnce(t *testing.T) {
	r := DefaultRegistry()
	type ask struct {
		rows, cols int
		density    float64
	}
	for _, c := range []struct {
		name   string
		params Params
		want   ask
	}{
		{"pagerank", Params{"nodes": 100}, ask{100, 100, 3.0 / 100}},
		{"pagerank", Params{"nodes": 100, "degree": 12.5}, ask{100, 100, 12.5 / 100}},
		// A degree past nodes-1 gives the complete graph's density.
		{"pagerank", Params{"nodes": 100, "degree": 1e13}, ask{100, 100, 99.0 / 100}},
		{"pagerank", Params{"nodes": 100, "degree": math.NaN()}, ask{100, 100, 1.0 / 100}},
		{"gram", Params{"rows": 60, "cols": 20}, ask{60, 20, 0.2}},
		{"gram", Params{"rows": 60, "cols": 20, "sparsity": 0.05}, ask{60, 20, 0.05}},
		{"gram", Params{"rows": 60, "cols": 20, "sparsity": 7}, ask{60, 20, 0.2}},
		{"blend", Params{"n": 40, "k": 6}, ask{40, 40, 1}},
	} {
		var asked []ask
		job, err := r.BuildSized(c.name, func(rows, cols int, density float64) int {
			asked = append(asked, ask{rows, cols, density})
			return 13
		}, c.params)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(asked) != 1 || asked[0] != c.want {
			t.Errorf("%s %v asked the sizer for %v, want once for %v", c.name, c.params, asked, c.want)
		}
		if job.BlockSize != 13 {
			t.Errorf("%s: BlockSize = %d, want 13", c.name, job.BlockSize)
		}
		for in, g := range job.Inputs {
			if g.BlockSize() != 13 {
				t.Errorf("%s: input %s has block size %d, want 13", c.name, in, g.BlockSize())
			}
		}
	}
}

// TestBuildDeterministic pins the cacheability contract: two builds with the
// same (blockSize, params) produce bit-identical inputs.
func TestBuildDeterministic(t *testing.T) {
	r := DefaultRegistry()
	params := Params{"seed": 7, "iters": 2}
	for _, name := range r.Names() {
		a, err := r.Build(name, 8, params)
		if err != nil {
			t.Fatal(err)
		}
		b, err := r.Build(name, 8, params)
		if err != nil {
			t.Fatal(err)
		}
		for in, g := range a.Inputs {
			if matrix.BitDiff(g, b.Inputs[in]) != "" {
				t.Errorf("%s: rebuild changed input %s", name, in)
			}
		}
	}
}

func TestParamsHelpers(t *testing.T) {
	p := Params{"n": 10000, "seed": 5}
	if got := p.Int("n", 48, 8, 4096); got != 4096 {
		t.Errorf("Int did not clamp: %d", got)
	}
	if got := p.Int("missing", 48, 8, 4096); got != 48 {
		t.Errorf("Int default: %d", got)
	}
	if got := p.Get("seed", 1); got != 5 {
		t.Errorf("Get: %g", got)
	}
	k1 := Params{"a": 1, "b": 2}.Key()
	k2 := Params{"b": 2, "a": 1}.Key()
	if k1 != k2 {
		t.Errorf("Key not canonical: %q vs %q", k1, k2)
	}
	if k1 == (Params{"a": 1, "b": 3}).Key() {
		t.Error("Key ignores values")
	}
}

// TestPageRankDegreeBeyondNodes: a degree no graph of the requested size can
// have builds the complete graph, every node linked to the nodes-1 others,
// instead of reserving room for degree x nodes edges (1e13 x 64 panicked in
// makeslice; 1e8 x 64 asked for ~150 GB).
func TestPageRankDegreeBeyondNodes(t *testing.T) {
	r := DefaultRegistry()
	for _, degree := range []float64{1e8, 1e13, 1e300, math.Inf(1)} {
		job, err := r.Build("pagerank", 16, Params{"nodes": 64, "degree": degree})
		if err != nil {
			t.Fatalf("degree %g: %v", degree, err)
		}
		if got := job.Inputs["link"].NNZ(); got != 64*63 {
			t.Errorf("degree %g: link holds %d entries, want the complete graph's %d", degree, got, 64*63)
		}
	}
}

// FuzzRegistryBuild holds every registry workload to its contract with the
// /v1/jobs request it is built from: whatever numbers the params carry, the
// build returns an error or a job of bounded size, within bounded memory,
// and never panics. Params reach the builder as the fuzzer gives them (NaN,
// infinities and negatives included) except that inputs asking for a
// dimension above 300 are skipped, to keep each build small: the registry
// clamps every dimension to at most 4 096 whatever it is given. The sizer is
// the job service's rule, so the density a builder derives is exercised too.
func FuzzRegistryBuild(f *testing.F) {
	f.Add(uint8(0), 64.0, 1e13, 3.0, 1.0) // a degree past nodes-1
	f.Add(uint8(0), 48.0, 3.0, 2.0, 1.0)
	f.Add(uint8(1), 48.0, 32.0, 0.2, 2.0)
	f.Add(uint8(1), 200.0, 9.0, math.NaN(), -1.0)
	f.Add(uint8(2), 48.0, 8.0, 1.0, 3.0)
	f.Add(uint8(2), -5.0, 1e300, math.Inf(-1), 1e19)
	r := DefaultRegistry()
	names := r.Names()
	f.Fuzz(func(t *testing.T, w uint8, dim, second, third, seed float64) {
		name := names[int(w)%len(names)]
		var params Params
		switch name {
		case "pagerank":
			params = Params{"nodes": dim, "degree": second, "iters": third, "seed": seed}
		case "gram":
			params = Params{"rows": dim, "cols": second, "sparsity": third, "seed": seed}
		case "blend":
			params = Params{"n": dim, "k": second, "iters": third, "seed": seed}
		}
		if dim > 300 || (name != "pagerank" && second > 300) {
			t.Skip("dimension above the explored range")
		}
		var density float64
		sizer := func(rows, cols int, d float64) int {
			density = d
			return max(8, sched.ChooseBlockSize(rows, cols, cost.TaskThreads(rows, cols, d, 32), 1))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		job, err := r.BuildSized(name, sizer, params)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return
		}
		if !(density >= 0 && density <= 1) {
			t.Errorf("%s %v: sizer asked at density %v", name, params, density)
		}
		// Every matrix of a job whose dimensions are at most 300 (k at most
		// 512) fits in 2 MB; its build allocates a few times that.
		const limit = 64 << 20
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("%s %v: build allocated %d bytes, limit %d", name, params, got, limit)
		}
		if elapsed > 10*time.Second {
			t.Errorf("%s %v: build took %v", name, params, elapsed)
		}
		for in, g := range job.Inputs {
			if g.Rows() > 4096 || g.Cols() > 4096 || g.BlockSize() != job.BlockSize {
				t.Errorf("%s %v: input %s is %dx%d at block size %d (job's %d)", name, params, in, g.Rows(), g.Cols(), g.BlockSize(), job.BlockSize)
			}
		}
		if err := job.Program.Validate(); err != nil {
			t.Errorf("%s %v: %v", name, params, err)
		}
	})
}
