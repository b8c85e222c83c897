package matrix

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The process's one worker pool.
//
// Every parallel loop of the process runs on a single shared worker pool:
// the block executor's task batches (sched.Executor.ForEachErr) and, inside
// their tasks, the strips one multiply is split into (the packed GEMM's MC
// row strips, the sparse x dense kernels' lane strips: always disjoint result
// rows or columns). The pool is bounded and long-lived: goroutines are
// spawned lazily up to the requested participant count and then reused for
// every subsequent loop, so steady-state batches and multiplications start no
// goroutines. The submitting goroutine always participates in its own loop
// and helpers are only offered, never waited for, which makes the scheme
// deadlock-free when kernel strips nest inside a block task: a busy pool
// merely means the caller computes its share itself.
//
// Every strip takes the scratch it packs into from a sync.Pool for the
// duration of that strip, so the pooled packing stays race-free while shared
// operands are read-only. Strips own disjoint destination elements and no
// strip boundary cuts a summation, so every output element accumulates its
// products in exactly the serial order: results are bit-identical to the
// single-worker kernel at every worker count.

// maxKernelWorkers bounds the workers a multiply's strips are cut for
// (SetKernelWorkers) and the shared pool's helpers. Strips may outnumber the
// cores, so a worker-scaling experiment cuts as many as it asks for with the
// same bits, but no loop runs more participants than GOMAXPROCS (Parallel):
// more would only queue for the same cores, each holding its own packing
// scratch.
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

// poolJob is a parallel loop: tasks [0, n) claimed by every participant (the
// caller plus any pool helpers that pick the job up). Jobs are reused, one
// loop after another, so a helper's pickup names the loop it was offered
// (poolOffer): a stale pickup, of a loop already finished, claims nothing and
// so touches no state, whichever loop the job runs by then.
type poolJob struct {
	// state holds the loop's generation in its high 32 bits and the next
	// unclaimed task in its low 32: a claim is one compare-and-swap that
	// fails once the job has moved on to another loop.
	state atomic.Uint64
	n     atomic.Int32
	wg    sync.WaitGroup
	// fn runs task i.
	fn func(i int)
}

// poolOffer is a job offered to the helpers for the loop of generation gen.
type poolOffer struct {
	j   *poolJob
	gen uint32
}

// poolJobFree recycles jobs between loops.
var poolJobFree = sync.Pool{New: func() any { return new(poolJob) }}

// begin starts the job's next loop, of n tasks running fn, and returns its
// generation. The generation moves first, so a stale pickup stops before it
// could read the new loop's task count.
func (j *poolJob) begin(n int, fn func(i int)) uint32 {
	gen := uint32(j.state.Load()>>32) + 1
	j.state.Store(uint64(gen) << 32)
	j.fn = fn
	j.wg.Add(n)
	j.n.Store(int32(n))
	return gen
}

// run claims tasks of the loop of generation gen until it is exhausted.
func (j *poolJob) run(gen uint32) {
	for {
		s := j.state.Load()
		if uint32(s>>32) != gen || int32(uint32(s)) >= j.n.Load() {
			return
		}
		if !j.state.CompareAndSwap(s, s+1) {
			continue
		}
		j.fn(int(uint32(s)))
		j.wg.Done()
	}
}

var (
	poolOnce    sync.Once
	poolJobs    chan poolOffer
	poolWorkers atomic.Int32
)

// ensurePoolWorkers lazily grows the shared pool so at least n helper
// goroutines exist (bounded by maxKernelWorkers). Helpers are never torn
// down; an idle pool costs only parked goroutines.
func ensurePoolWorkers(n int) {
	poolOnce.Do(func() {
		// A slot per possible helper: an offer is dropped only when the
		// queue already holds as many pickups as there can be helpers.
		poolJobs = make(chan poolOffer, maxKernelWorkers)
	})
	for int(poolWorkers.Load()) < n {
		id := poolWorkers.Add(1)
		if id > maxKernelWorkers {
			poolWorkers.Add(-1)
			return
		}
		go func() {
			for o := range poolJobs {
				o.j.run(o.gen)
			}
		}()
	}
}

// Parallel runs fn(i) for every i in [0, n) across at most min(workers, n,
// GOMAXPROCS) participants, the caller and the rest pool helpers (at most
// maxKernelWorkers), and blocks until every call returned. How a caller cuts
// its work follows workers, not the participants, so results do not depend
// on the core count. Helper offers are best-effort (non-blocking sends):
// under pool contention the caller simply runs more of the tasks itself.
// With one participant the caller runs the loop without touching the pool.
// fn may itself call Parallel.
func Parallel(n, workers int, fn func(i int)) {
	workers = min(workers, n)
	if workers > 1 {
		workers = min(workers, runtime.GOMAXPROCS(0))
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	j := poolJobFree.Get().(*poolJob)
	gen := j.begin(n, fn)
	helpers := workers - 1
	ensurePoolWorkers(helpers)
offer:
	for h := 0; h < helpers; h++ {
		select {
		case poolJobs <- poolOffer{j, gen}:
		default:
			break offer // pool saturated; the caller runs the rest
		}
	}
	j.run(gen)
	j.wg.Wait()
	j.fn = nil
	poolJobFree.Put(j)
}
