package sched

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"dmac/internal/cost"
	"dmac/internal/matrix"
	"dmac/internal/obs"
)

// TestMulTransMatchesMaterialized checks every transpose combination of
// MulTrans against the materializing reference: transpose the grids first,
// then multiply with the plain kernel.
func TestMulTransMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, combo := range []struct {
		name   string
		aT, bT bool
	}{
		{"NN", false, false},
		{"NT", false, true},
		{"TN", true, false},
		{"TT", true, true},
	} {
		t.Run(combo.name, func(t *testing.T) {
			// Stored shapes so that op(a) is 23x17 and op(b) is 17x19.
			ar, ac := 23, 17
			if combo.aT {
				ar, ac = 17, 23
			}
			br, bc := 17, 19
			if combo.bT {
				br, bc = 19, 17
			}
			a := randGrid(rng, ar, ac, 5, 0.4)
			b := randGrid(rng, br, bc, 5, 1)
			ra, rb := a, b
			if combo.aT {
				ra = ra.Transpose()
			}
			if combo.bT {
				rb = rb.Transpose()
			}
			want, err := matrix.MulGrid(ra, rb)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []MulStrategy{InPlace, Buffer} {
				e := NewExecutor(2, nil)
				got, err := e.MulTrans(a, b, combo.aT, combo.bT, s)
				if err != nil {
					t.Fatalf("strategy %v: %v", s, err)
				}
				if !matrix.GridEqual(got, want, 1e-10) {
					t.Errorf("strategy %v: fused %s product differs from materialized reference", s, combo.name)
				}
			}
		})
	}
}

// TestMulTransShapeErrors: logical (post-transpose) dimensions are what must
// agree.
func TestMulTransShapeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := randGrid(rng, 6, 4, 2, 1)
	b := randGrid(rng, 6, 5, 2, 1)
	e := NewExecutor(1, nil)
	// a (6x4) * b (6x5) mismatches untransposed but works as t(a)*b.
	if _, err := e.MulTrans(a, b, false, false, InPlace); err == nil {
		t.Error("expected shape error for untransposed mismatch")
	}
	if _, err := e.MulTrans(a, b, true, false, InPlace); err != nil {
		t.Errorf("t(a)*b should be valid: %v", err)
	}
}

// TestKernelMulFlopsMatchModel: kernel.mul.flops is the cost model's multiply
// estimate for the same operands, fractional row density included — on a
// sparse x sparse product whose right operand stores 1.5 elements per row, an
// integer nnz(B)/inner would count 1 and report two thirds of the model.
func TestKernelMulFlopsMatchModel(t *testing.T) {
	diagonals := func(n, nnz int) *matrix.Grid {
		coords := make([]matrix.Coord, nnz)
		for i := range coords {
			coords[i] = matrix.Coord{Row: i % n, Col: (i + i/n) % n, Val: 1}
		}
		return matrix.FromCoords(n, n, 5, coords)
	}
	a, b := diagonals(10, 20), diagonals(10, 15)
	if a.NNZ() != 20 || b.NNZ() != 15 {
		t.Fatalf("operands store %d and %d elements, want 20 and 15", a.NNZ(), b.NNZ())
	}
	e := NewExecutor(2, nil)
	reg := obs.NewRegistry()
	e.SetObserver(nil, reg)
	if _, err := e.MulTrans(a, b, false, false, InPlace); err != nil {
		t.Fatal(err)
	}
	got, want := reg.Snapshot().Counters["kernel.mul.flops"], cost.MulFLOPs(a.NNZ(), b.NNZ(), 10)
	if got != 60 || want != 60 { // 2 * 20 * 1.5
		t.Errorf("kernel.mul.flops = %d, cost.MulFLOPs = %v, want 60 for both", got, want)
	}
}

// TestMulTransKernelMetrics: a multiply with a registry attached must record
// the kernel counters, the achieved-GFLOPs histogram and the worker gauge,
// and export them all.
func TestMulTransKernelMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := randGrid(rng, 20, 20, 5, 1)
	b := randGrid(rng, 20, 20, 5, 1)
	e := NewExecutor(2, nil)
	reg := obs.NewRegistry()
	e.SetObserver(nil, reg)
	if _, err := e.MulTrans(a, b, false, false, InPlace); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["kernel.mul.count"]; got != 1 {
		t.Errorf("kernel.mul.count = %d, want 1", got)
	}
	if got := snap.Counters["kernel.mul.flops"]; got <= 0 {
		t.Errorf("kernel.mul.flops = %d, want > 0", got)
	}
	if h := snap.Histograms["kernel.mul.gflops"]; h.Count != 1 || h.Sum <= 0 {
		t.Errorf("kernel.mul.gflops histogram count = %d, sum = %v, want one positive observation", h.Count, h.Sum)
	}
	if got, ok := snap.Gauges["kernel.workers"]; !ok || got < 1 {
		t.Errorf("kernel.workers gauge = %v (present=%v), want >= 1", got, ok)
	}

	// What the executor recorded must survive the Prometheus exposition: one
	// family per snapshot entry, of the snapshot's kind. Two metrics sharing
	// an exposition name would fail the write or drop a family here.
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, snap); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	expect := func(name, suffix, kind string) {
		t.Helper()
		line := "# TYPE dmac_" + strings.ReplaceAll(name, ".", "_") + suffix + " " + kind + "\n"
		if !strings.Contains(out, line) {
			t.Errorf("exposition lacks %q:\n%s", line, out)
		}
	}
	for name := range snap.Counters {
		expect(name, "_total", "counter")
	}
	for name := range snap.Gauges {
		expect(name, "", "gauge")
	}
	for name := range snap.Histograms {
		expect(name, "", "histogram")
	}
}
