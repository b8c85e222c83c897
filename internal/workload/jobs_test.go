package workload

import (
	"testing"

	"dmac/internal/matrix"
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
// sizer once, with the dimensions of its largest matrix, and cuts every input
// at the answer.
func TestBuildersAskTheSizerOnce(t *testing.T) {
	r := DefaultRegistry()
	for _, c := range []struct {
		name       string
		params     Params
		rows, cols int
	}{
		{"pagerank", Params{"nodes": 100}, 100, 100},
		{"gram", Params{"rows": 60, "cols": 20}, 60, 20},
		{"blend", Params{"n": 40, "k": 6}, 40, 40},
	} {
		var asked [][2]int
		job, err := r.BuildSized(c.name, func(rows, cols int) int {
			asked = append(asked, [2]int{rows, cols})
			return 13
		}, c.params)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(asked) != 1 || asked[0] != [2]int{c.rows, c.cols} {
			t.Errorf("%s asked the sizer for %v, want once for %dx%d", c.name, asked, c.rows, c.cols)
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
			if !matrix.GridEqual(g, b.Inputs[in], 0) {
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
