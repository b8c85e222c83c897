package sched

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"dmac/internal/matrix"
)

// poolParticipants bounds the goroutines that may run one caller's tasks:
// the caller itself plus the shared pool's helpers (matrix's
// maxKernelWorkers, 64).
const poolParticipants = 64 + 1

// goroutineID reads the running goroutine's ID from its stack header
// ("goroutine 17 [running]:"), 0 if the header does not parse.
func goroutineID() uint64 {
	var buf [64]byte
	head := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(head[:max(bytes.IndexByte(head, ' '), 0)]), 10, 64)
	return id
}

// TestForEachRunsOnThePool: batch after batch runs on the same long-lived
// goroutines, the caller and the shared pool's helpers, instead of starting
// goroutines of its own per batch.
func TestForEachRunsOnThePool(t *testing.T) {
	e := NewExecutor(8, nil)
	var mu sync.Mutex
	ids := map[uint64]bool{}
	for b := 0; b < 200; b++ {
		e.ForEach(8, func(int) {
			id := goroutineID()
			mu.Lock()
			ids[id] = true
			mu.Unlock()
		})
	}
	if ids[0] {
		t.Fatal("a task's stack header did not parse")
	}
	if len(ids) > poolParticipants {
		t.Errorf("200 batches of 8 tasks ran on %d goroutines, want at most %d", len(ids), poolParticipants)
	}
}

// TestForEachNestedKernelStrips runs a batch whose tasks are multiplies big
// enough for their block products to split into strips on the same pool (a
// 192-cube GEMM is above the GEMM threshold, 192 lanes of a 40 % sparse block
// above the sparse one), so batches, nested batches and kernel strips all
// share it. Every product must finish and match a one-thread executor with
// serial kernels bit for bit, with one and with four Ps.
func TestForEachNestedKernelStrips(t *testing.T) {
	const n, bs = 384, 192
	rng := rand.New(rand.NewSource(39))
	dense := randGrid(rng, n, n, bs, 1)
	sparse := randGrid(rng, n, n, bs, 0.4)
	if !sparse.Block(0, 0).IsSparse() {
		t.Fatal("sparse operand built dense blocks")
	}
	products := []struct {
		a, b   *matrix.Grid
		aT, bT bool
	}{
		{dense, dense, false, false},
		{dense, dense, true, false},
		{sparse, dense, false, false},
		{sparse, dense, true, false},
		{dense, sparse, false, false},
		{dense, sparse, false, true},
	}
	run := func(t *testing.T, e *Executor) []*matrix.Grid {
		out := make([]*matrix.Grid, len(products))
		e.ForEach(len(products), func(i int) {
			p := products[i]
			g, err := e.MulTrans(p.a, p.b, p.aT, p.bT, InPlace)
			if err != nil {
				t.Errorf("product %d: %v", i, err)
				return
			}
			out[i] = g
		})
		return out
	}
	prevWorkers := matrix.SetKernelWorkers(1)
	defer matrix.SetKernelWorkers(prevWorkers)
	want := run(t, NewExecutor(1, nil))
	if t.Failed() {
		return
	}
	matrix.SetKernelWorkers(4)
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			got := run(t, NewExecutor(4, nil))
			if t.Failed() {
				return
			}
			for i := range products {
				g, w := got[i].ToDense(), want[i].ToDense()
				for k := range w {
					if math.Float64bits(g[k]) != math.Float64bits(w[k]) {
						t.Fatalf("product %d, cell %d: %v, want %v (serial)", i, k, g[k], w[k])
					}
				}
			}
		})
	}
}

// An executor given no parallelism takes GOMAXPROCS, the default every
// scheduler and kernel setting follows, not the machine's CPU count.
func TestNewExecutorDefaultsToGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 1))
	if got, want := NewExecutor(0, nil).parallelism, runtime.NumCPU()+1; got != want {
		t.Errorf("NewExecutor(0) parallelism = %d, want GOMAXPROCS %d", got, want)
	}
}
