package matrix

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Intra-op parallelism for the block kernels.
//
// One multiply is split into independent strip tasks (the packed GEMM's MC
// row strips, the sparse x dense kernels' lane strips: always disjoint result
// rows or columns) executed by a single shared worker pool. The pool is bounded and
// long-lived: goroutines are spawned lazily up to the requested worker count
// and then reused for every subsequent kernel call, so steady-state
// multiplications start no goroutines. The submitting goroutine always
// participates in its own job, which makes the scheme deadlock-free even
// when kernels nest under the block executor's own task pool: a busy pool
// merely means the caller computes its strips itself.
//
// Every strip takes the scratch it packs into from a sync.Pool for the
// duration of that strip, so the pooled packing stays race-free while shared
// operands are read-only. Strips own disjoint destination elements and no
// strip boundary cuts a summation, so every output element accumulates its
// products in exactly the serial order: results are bit-identical to the
// single-worker kernel at every worker count.

// maxKernelWorkers bounds the shared pool. It intentionally exceeds any real
// core count so worker-scaling experiments can oversubscribe a small machine.
const maxKernelWorkers = 64

// kernelWorkers is the target intra-op parallelism of one block multiply.
var kernelWorkers atomic.Int32

func init() {
	kernelWorkers.Store(int32(clampWorkers(runtime.GOMAXPROCS(0))))
}

func clampWorkers(n int) int {
	if n < 1 {
		return 1
	}
	if n > maxKernelWorkers {
		return maxKernelWorkers
	}
	return n
}

// SetKernelWorkers sets the number of workers one block multiply is split
// across (clamped to [1, 64]) and returns the previous value. The default is
// GOMAXPROCS. One worker selects the serial kernel; results are bit-identical
// at every setting.
func SetKernelWorkers(n int) int {
	return int(kernelWorkers.Swap(int32(clampWorkers(n))))
}

// KernelWorkers returns the current intra-op parallelism of block multiplies.
func KernelWorkers() int { return int(kernelWorkers.Load()) }

// stripJob is one parallel strip sweep: tasks [0, n) claimed off an atomic
// counter by every participant (the caller plus any pool workers that pick
// the job up).
type stripJob struct {
	n    int32
	next atomic.Int32
	wg   sync.WaitGroup
	// fn computes strip i.
	fn func(i int)
}

// run claims strips until the job is exhausted; a stale pickup of a finished
// job claims nothing and so touches no state.
func (j *stripJob) run() {
	for i := j.next.Add(1) - 1; i < j.n; i = j.next.Add(1) - 1 {
		j.fn(int(i))
		j.wg.Done()
	}
}

var (
	gemmPoolOnce    sync.Once
	gemmJobs        chan *stripJob
	gemmPoolWorkers atomic.Int32
)

// ensureGemmWorkers lazily grows the shared pool so at least n helper
// goroutines exist (bounded by maxKernelWorkers). Workers are never torn
// down; an idle pool costs only parked goroutines.
func ensureGemmWorkers(n int) {
	gemmPoolOnce.Do(func() {
		gemmJobs = make(chan *stripJob, maxKernelWorkers)
	})
	for int(gemmPoolWorkers.Load()) < n {
		id := gemmPoolWorkers.Add(1)
		if id > maxKernelWorkers {
			gemmPoolWorkers.Add(-1)
			return
		}
		go func() {
			for j := range gemmJobs {
				j.run()
			}
		}()
	}
}

// parallelStrips runs fn(i) for every strip i in [0, n) across at most
// `workers` participants and blocks until all strips completed. Helper
// pickups are best-effort (non-blocking sends): under pool contention the
// caller simply computes more strips itself.
func parallelStrips(n, workers int, fn func(i int)) {
	j := &stripJob{n: int32(n), fn: fn}
	j.wg.Add(n)
	helpers := workers - 1
	if helpers > n-1 {
		helpers = n - 1
	}
	ensureGemmWorkers(helpers)
offer:
	for h := 0; h < helpers; h++ {
		select {
		case gemmJobs <- j:
		default:
			break offer // pool saturated; the caller computes the rest
		}
	}
	j.run()
	j.wg.Wait()
}
