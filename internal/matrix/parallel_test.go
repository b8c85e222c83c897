package matrix

import (
	"math/rand"
	"testing"
)

// TestParallelMatchesSerialBitIdentical pins the central claim of the
// parallel kernel: because the k-panel loop stays serial and strips own
// disjoint result rows, the output is bit-identical to the serial kernel at
// every worker count — including counts far above the machine's cores and
// shapes with ragged strips.
func TestParallelMatchesSerialBitIdentical(t *testing.T) {
	defer SetKernelWorkers(SetKernelWorkers(1))
	rng := rand.New(rand.NewSource(42))
	shapes := [][3]int{
		{128, 128, 128},
		{200, 160, 150},
		{129, 257, 131}, // odd everything, ragged strips
		{65, 1024, 1024},
		{512, 33, 512},
	}
	for _, sh := range shapes {
		n, m, p := sh[0], sh[1], sh[2]
		for _, tr := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			aT, bT := tr[0], tr[1]
			ar, ac := n, m
			if aT {
				ar, ac = m, n
			}
			br, bc := m, p
			if bT {
				br, bc = p, m
			}
			a := randDense(rng, ar, ac)
			b := randDense(rng, br, bc)
			want := NewDense(n, p)
			SetKernelWorkers(1)
			if err := MulAddTransInto(want, a, b, aT, bT); err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 3, 4, 8, 17} {
				SetKernelWorkers(w)
				got := NewDense(n, p)
				if err := MulAddTransInto(got, a, b, aT, bT); err != nil {
					t.Fatal(err)
				}
				if d := bitDiff(got, want); d != "" {
					t.Fatalf("%dx%dx%d aT=%v bT=%v workers=%d: got vs serial %s", n, m, p, aT, bT, w, d)
				}
			}
		}
	}
}

// TestParallelConcurrentCallers drives the shared pool from many goroutines
// at once (the executor's block tasks do exactly this) and checks each result
// against the serial kernel. Run under -race this pins the pool, the shared
// packed-B strip and the per-participant A arenas as race-free.
func TestParallelConcurrentCallers(t *testing.T) {
	defer SetKernelWorkers(SetKernelWorkers(4))
	rng := rand.New(rand.NewSource(7))
	n, m, p := 160, 140, 130
	a := randDense(rng, n, m)
	b := randDense(rng, m, p)
	want := NewDense(n, p)
	SetKernelWorkers(1)
	if err := MulAddTransInto(want, a, b, false, false); err != nil {
		t.Fatal(err)
	}
	SetKernelWorkers(4)
	const callers = 8
	errs := make(chan string, callers)
	for g := 0; g < callers; g++ {
		go func() {
			got := NewDense(n, p)
			if err := MulAddTransInto(got, a, b, false, false); err != nil {
				errs <- err.Error()
				return
			}
			if d := bitDiff(got, want); d != "" {
				errs <- "parallel result differs from serial under concurrent callers at " + d
				return
			}
			errs <- ""
		}()
	}
	for g := 0; g < callers; g++ {
		if msg := <-errs; msg != "" {
			t.Fatal(msg)
		}
	}
}

func TestSetKernelWorkersClamps(t *testing.T) {
	defer SetKernelWorkers(SetKernelWorkers(1))
	SetKernelWorkers(0)
	if got := KernelWorkers(); got != 1 {
		t.Fatalf("workers after Set(0) = %d, want 1", got)
	}
	SetKernelWorkers(10_000)
	if got := KernelWorkers(); got != maxKernelWorkers {
		t.Fatalf("workers after Set(10000) = %d, want %d", got, maxKernelWorkers)
	}
	if prev := SetKernelWorkers(3); prev != maxKernelWorkers {
		t.Fatalf("Set returned %d, want previous %d", prev, maxKernelWorkers)
	}
}
