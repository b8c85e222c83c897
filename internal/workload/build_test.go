package workload

import (
	"runtime"
	"testing"

	"dmac/internal/cost"
	"dmac/internal/matrix"
	"dmac/internal/sched"
)

// servedSizer is the job service's block-size rule on the benchmark's
// cluster (4 workers x 8 threads) above its 32-wide floor.
func servedSizer(rows, cols int, density float64) int {
	return max(32, sched.ChooseBlockSize(rows, cols, cost.TaskThreads(rows, cols, density, 32), 1))
}

// serveMixJobs are the registry jobs of the benchmark's serve_mix workload,
// with what one fresh build of each may allocate: the allocations pinned at
// what a build makes, the bytes at what it allocates rounded up to a KiB, so
// a change may lower a figure but never raise it.
var serveMixJobs = []struct {
	name          string
	params        Params
	allocs, bytes int64
}{
	{"pagerank", Params{"nodes": 1024, "iters": 5, "degree": 8}, 50, 239 << 10},
	{"gram", Params{"rows": 512, "cols": 128, "sparsity": 0.05}, 35, 63 << 10},
	{"blend", Params{"n": 256, "k": 32, "iters": 2}, 38, 149 << 10},
}

// BenchmarkRegistryBuild times one fresh build of each registry workload at
// serve_mix's params and block sizes.
func BenchmarkRegistryBuild(b *testing.B) {
	r := DefaultRegistry()
	for _, j := range serveMixJobs {
		b.Run(j.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := r.BuildSized(j.name, servedSizer, j.params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// allocated returns the allocations and bytes one call of fn makes, as the
// mean over runs calls after a first one, at one P like testing.AllocsPerRun
// so that nothing else runs beside them.
func allocated(runs int, fn func()) (allocs, bytes int64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs-before.Mallocs) / int64(runs), int64(after.TotalAlloc-before.TotalAlloc) / int64(runs)
}

// TestRegistryBuildAllocations is the ratchet on a fresh build's
// allocations at serve_mix's params.
func TestRegistryBuildAllocations(t *testing.T) {
	r := DefaultRegistry()
	for _, j := range serveMixJobs {
		allocs, bytes := allocated(10, func() {
			if _, err := r.BuildSized(j.name, servedSizer, j.params); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d allocations, %d bytes a build", j.name, allocs, bytes)
		if allocs > j.allocs || bytes > j.bytes {
			t.Errorf("%s: a build makes %d allocations of %d bytes, pinned at %d and %d", j.name, allocs, bytes, j.allocs, j.bytes)
		}
	}
}

// TestBuildMemoryBound: a build runs before admission prices its job
// (BuiltJob.EstimatedBytes), so what it allocates on the way is what one
// submission can cost the server unpriced. A gram build at 1024 x 1024 and
// sparsity 1, a 12 MB input, must allocate at most twice its inputs.
func TestBuildMemoryBound(t *testing.T) {
	params := Params{"rows": 1024, "cols": 1024, "sparsity": 1}
	var job *BuiltJob
	_, bytes := allocated(1, func() {
		var err error
		if job, err = DefaultRegistry().BuildSized("gram", servedSizer, params); err != nil {
			t.Fatal(err)
		}
	})
	in := job.InputBytes()
	t.Logf("gram %v: %d bytes allocated for %d bytes of inputs (%.2fx)", params, bytes, in, float64(bytes)/float64(in))
	if bytes > 2*in {
		t.Errorf("gram %v: the build allocated %d bytes for %d bytes of inputs, over twice", params, bytes, in)
	}
}

// TestSparseUniformMemoryFollowsEntries: a very sparse matrix of many cells
// marks its entries in a hash set of them, not in a bitmap of its cells, so
// its build allocates at most twice the grid it makes; a bitmap of these
// 4096 x 4096 cells alone would take 3 MB for 16 entries. The grids must
// still be the staged generator's.
func TestSparseUniformMemoryFollowsEntries(t *testing.T) {
	for _, bs := range []int{64, 1000, 4096} {
		var g *matrix.Grid
		_, bytes := allocated(1, func() { g = SparseUniform(1, 4096, 4096, bs, 1e-6) })
		in := g.MemBytes()
		t.Logf("block size %d: %d bytes allocated for a %d-byte grid of %d entries", bs, bytes, in, g.NNZ())
		if bytes > 2*in {
			t.Errorf("block size %d: SparseUniform allocated %d bytes for a %d-byte grid, over twice", bs, bytes, in)
		}
		if d := gridDiff(g, stagedSparseUniform(1, 4096, 4096, bs, 1e-6)); d != "" {
			t.Errorf("block size %d: %s", bs, d)
		}
	}
}
