package cost

import (
	"math"
	"testing"

	"dmac/internal/matrix"
)

// TestPresets pins the two rate sets: every modelled second in the repository
// and in the paper-figure reproductions descends from these six numbers.
func TestPresets(t *testing.T) {
	if got, want := Production(), (Rates{2e9, 1 << 30, 0.05}); got != want {
		t.Errorf("Production() = %+v, want %+v", got, want)
	}
	if got, want := Scaled(), (Rates{5e7, 1 << 30, 1e-4}); got != want {
		t.Errorf("Scaled() = %+v, want %+v", got, want)
	}
	// Or fills exactly the unset rates.
	got := Rates{FlopsPerSecPerThread: 7, ShuffleLatencySec: -1}.Or(Production())
	if want := (Rates{7, 1 << 30, 0.05}); got != want {
		t.Errorf("Or = %+v, want %+v", got, want)
	}
}

// TestTimeModel ties work → seconds to the model of Section 6.1: arithmetic
// spread over all threads and stretched by the slowest worker, bytes over the
// bandwidth plus a fixed latency per event.
func TestTimeModel(t *testing.T) {
	r := Rates{FlopsPerSecPerThread: 100, BandwidthBytesPerSec: 1000, ShuffleLatencySec: 0.5}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"compute, no straggler: 1600 / (8 threads * 100)", r.ComputeSec(1600, 8, 1), 2},
		{"compute, 3x straggler", r.ComputeSec(1600, 8, 3), 6},
		{"network: 2000 B / 1000 B/s + 3 events * 0.5 s", r.NetworkSec(2000, 3), 3.5},
		{"network, nothing moved", r.NetworkSec(0, 0), 0},
		{"checkpoint write: 1e9 B at 200 MB/s", WriteSec(1e9), 5},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// TestOperatorFLOPs ties each coefficient to its definition.
func TestOperatorFLOPs(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		// Section 5.1: 2 * nnz(A) * max(nnz(B)/inner, 1).
		{"mul dense 10x10x10", MulFLOPs(100, 100, 10), 2 * 100 * 10},
		{"mul fractional density is kept", MulFLOPs(40, 15, 10), 2 * 40 * 1.5},
		{"mul density floors at 1", MulFLOPs(40, 5, 10), 2 * 40},
		{"mul empty inner", MulFLOPs(40, 5, 0), 0},
		{"mul known density", MulFLOPsPerRow(40, 2.5), 2 * 40 * 2.5},
		{"dense mul 2mkn", DenseMulFLOPs(3, 4, 5), 120},
		{"cell-wise 1/cell", CellwiseFLOPs(3, 4), 12},
		{"ufunc 4/cell", UFuncFLOPs(3, 4), 48},
		{"scalar 1/elem", ScalarFLOPs(7), 7},
		{"sum 1/elem", SumFLOPs(7), 7},
		{"norm2 2/elem", Norm2FLOPs(7), 14},
		{"transpose 1/elem", TransposeFLOPs(7), 7},
		{"worst-case nnz", EstNNZ(10, 20, 0.25), 50},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// TestSizeBytes ties |A| to Section 5.1: the CSC footprint of the worst-case
// element count below SparseThreshold, the dense footprint at and above it.
func TestSizeBytes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"sparse side", SizeBytes(1000, 1000, 0.01), matrix.SparseMemBytes(1000, 10000)},
		{"just below the threshold", SizeBytes(10, 10, 0.49), matrix.SparseMemBytes(10, 49)},
		{"at the threshold", SizeBytes(10, 10, SparseThreshold), matrix.DenseMemBytes(10, 10)},
		{"dense side", SizeBytes(100, 100, 1), matrix.DenseMemBytes(100, 100)},
		{"negative sparsity clamps to 0", SizeBytes(10, 10, -1), SizeBytes(10, 10, 0)},
		{"sparsity above 1 clamps to 1", SizeBytes(10, 10, 2), SizeBytes(10, 10, 1)},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestGridBytesMatchesEq2 ties the blocked footprint to Eq. 2: it is the sum
// of the blocks' own footprints, so smaller blocks, which duplicate the
// column-pointer array, never cost less.
func TestGridBytesMatchesEq2(t *testing.T) {
	// 100 x 60 at sparsity 0.1 is 600 stored elements.
	// Block size 20: 5 block-rows of 3 blocks, 20 columns each.
	if got, want := GridBytes(100, 60, 0.1, 20), 5*3*matrix.SparseMemBytes(20, 0)+12*600; got != want {
		t.Errorf("block size 20: %d, want %d", got, want)
	}
	// Block size 50: 2 block-rows of a 50-column and a 10-column block.
	if got, want := GridBytes(100, 60, 0.1, 50), 2*(matrix.SparseMemBytes(50, 0)+matrix.SparseMemBytes(10, 0))+12*600; got != want {
		t.Errorf("block size 50: %d, want %d", got, want)
	}
	prev := int64(math.MaxInt64)
	for _, bs := range []int{100, 500, 1000, 5000, 10000} {
		m := GridBytes(10000, 10000, 0.001, bs)
		if m > prev {
			t.Errorf("GridBytes increased from %d to %d at bs=%d", prev, m, bs)
		}
		prev = m
	}
	// One block is the unpartitioned matrix: Eq. 2 meets |A|.
	if got, want := GridBytes(100, 60, 0.1, 100), SizeBytes(100, 60, 0.1); got != want {
		t.Errorf("single block: %d, want SizeBytes %d", got, want)
	}
	// Dense accounting ignores the block size and starts at the same threshold.
	if got, want := GridBytes(100, 100, SparseThreshold, 10), matrix.DenseMemBytes(100, 100); got != want {
		t.Errorf("dense: %d, want %d", got, want)
	}
}

// TestTaskThreads: one thread per MinTaskEntries of expected entries, rounded
// down, at least one and at most the cluster's threads.
func TestTaskThreads(t *testing.T) {
	for _, c := range []struct {
		name       string
		rows, cols int
		density    float64
		threads    int
		want       int
	}{
		{"nothing stored", 100, 100, 0, 32, 1},
		{"under one task's worth", 1024, 1024, 8.0 / 1024, 32, 1},
		{"one task's worth exactly", 1, MinTaskEntries, 1, 32, 1},
		{"rounded down", 300, 300, 1, 32, 90000 / MinTaskEntries},
		{"capped at the threads", 4096, 4096, 1, 32, 32},
		{"paid for every thread exactly", 32, MinTaskEntries, 1, 32, 32},
		{"NaN density", 100, 100, math.NaN(), 32, 1},
		{"no threads", 4096, 4096, 1, 0, 1},
	} {
		if got := TaskThreads(c.rows, c.cols, c.density, c.threads); got != c.want {
			t.Errorf("%s: TaskThreads(%d, %d, %v, %d) = %d, want %d", c.name, c.rows, c.cols, c.density, c.threads, got, c.want)
		}
	}
}
