// Package sched implements DMac's local execution strategy (Section 5.3):
// a block-based executor that splits matrix operations into per-result-block
// tasks and runs them on a fixed pool of worker threads, the process's one
// long-lived worker pool (matrix.Parallel) that the kernels' strips also run
// on. Two aggregation strategies for block multiplication are provided — the
// paper's In-Place approach and the traditional Buffer approach it is
// compared against in Figure 7. The paper's result buffer pool is BlockPool:
// an engine installs its own for the length of a run, and the run's dense
// result blocks come from it and go back to it once nothing reaches them.
//
// Every result block a task returns follows one rule: it holds no subnormal.
// A multiply task flushes its block once the last product is in, while the
// block is still in cache, and a cell-wise task evaluates its tree with
// matrix.CellTree.EvalResult, which flushes each chunk as it is computed;
// either way matrix.FlushSubnormals stores a subnormal as the zero of its sign
// and leaves every other value alone. Only values below 2⁻¹⁰²² change, while
// on x86 every instruction that reads or produces one takes a microcode
// assist: GNMF's multiplicative update drives H into that range, and every
// later product reading H would pay for it.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dmac/internal/cost"
	"dmac/internal/matrix"
	"dmac/internal/obs"
)

// Executor runs block tasks on a fixed number of local threads. It models
// the per-worker execution flow of Figure 4: each batch is a task queue (an
// atomic counter) drained by up to L participants, the calling goroutine and
// helpers from the shared worker pool. Each task takes its dense result block
// from the installed BlockPool (SetPool), or allocates it when none is
// installed, and charges it to the memory tracker, if any, either way.
type Executor struct {
	parallelism int
	mem         *MemTracker
	// tracer and metrics observe task batches when set (see SetObserver);
	// atomic so enabling observability never races with running batches.
	tracer  atomic.Pointer[obs.Tracer]
	metrics atomic.Pointer[execMetrics]
	// pool supplies dense result blocks when set (see SetPool).
	pool atomic.Pointer[BlockPool]
	// flushed counts the result elements the result rule stored as zero.
	flushed atomic.Int64
}

// NewExecutor creates an executor with the given local parallelism (L in the
// paper). If parallelism <= 0, runtime.GOMAXPROCS(0) is used. The memory
// tracker may be nil, in which case nothing is counted: only the memory
// experiments (Figures 7 and 8b) read one, and they pass their own.
func NewExecutor(parallelism int, mem *MemTracker) *Executor {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &Executor{parallelism: parallelism, mem: mem}
}

// SetObserver attaches a span tracer and a metrics registry to the
// executor. Every subsequent task batch (ForEach/ForEachErr) emits one
// "sched" span under the span its context carries, splitting the batch into
// queue-wait and compute time, and feeds the batch-size histogram. Either
// argument may be nil to disable that half.
func (e *Executor) SetObserver(t *obs.Tracer, m *obs.Registry) {
	e.tracer.Store(t)
	e.metrics.Store(&execMetrics{reg: m})
}

// execMetrics holds the executor's instruments from one attached registry,
// each set resolved on its first event and held after it (a nil registry's
// are nil, no-op metrics).
type execMetrics struct {
	reg        *obs.Registry
	mul        obs.Lazy[mulMetrics]
	gflops     obs.Lazy[obs.Histogram]
	batch      obs.Lazy[[2]*obs.Histogram] // sched.batch.tasks, sched.batch.compute.seconds
	flushed    obs.Lazy[obs.Counter]
	transposes obs.Lazy[obs.Counter]
}

type mulMetrics struct {
	count, flops *obs.Counter
	workers      *obs.Gauge
}

// observeMul records one grid multiply of the given FLOPs that took elapsed
// seconds; kernel.mul.gflops only when there is a rate to observe.
func (m *execMetrics) observeMul(flops, elapsed float64) {
	mm := m.mul.Get(func() *mulMetrics {
		return &mulMetrics{m.reg.Counter("kernel.mul.count"), m.reg.Counter("kernel.mul.flops"), m.reg.Gauge("kernel.workers")}
	})
	mm.count.Inc()
	mm.flops.Add(int64(flops))
	mm.workers.Set(float64(matrix.KernelWorkers()))
	if elapsed > 0 && flops > 0 {
		m.gflops.Get(func() *obs.Histogram {
			return m.reg.Histogram("kernel.mul.gflops", obs.GFLOPSBuckets)
		}).Observe(flops / elapsed / 1e9)
	}
}

// observeBatch records one traced batch of n tasks that computed for
// seconds.
func (m *execMetrics) observeBatch(n int, seconds float64) {
	bm := m.batch.Get(func() *[2]*obs.Histogram {
		return &[2]*obs.Histogram{
			m.reg.Histogram("sched.batch.tasks", obs.TasksBuckets),
			m.reg.Histogram("sched.batch.compute.seconds", obs.SecondsBuckets),
		}
	})
	bm[0].Observe(float64(n))
	bm[1].Observe(seconds)
}

// SetPool installs the block pool every subsequent result block is taken
// from; nil restores plain allocation. It is run-scoped: an engine installs
// its pool for one run and removes it after, so callers
// outside a run get fresh blocks that nothing owns.
func (e *Executor) SetPool(p *BlockPool) { e.pool.Store(p) }

// result returns a rows x cols dense block for a task's result, charged to
// the memory tracker: from the installed pool, or fresh when there is none.
// zero clears a reused block, for tasks that accumulate into it; a fresh
// block is zero already.
func (e *Executor) result(rows, cols int, zero bool) *matrix.DenseBlock {
	var b *matrix.DenseBlock
	if p := e.pool.Load(); p != nil {
		b = p.take(rows, cols, zero)
	} else {
		b = matrix.NewDense(rows, cols)
	}
	e.mem.Add(b.MemBytes())
	return b
}

// Flushed returns how many result elements the executor has stored as zero
// because they were subnormal, over its lifetime; a run's share is the
// difference across it.
func (e *Executor) Flushed() int64 { return e.flushed.Load() }

// noteFlushed counts n elements a task flushed, under exec.subnormals.flushed
// too when metrics are attached.
func (e *Executor) noteFlushed(n int64) {
	if n == 0 {
		return
	}
	e.flushed.Add(n)
	if m := e.metrics.Load(); m != nil {
		m.flushed.Get(func() *obs.Counter { return m.reg.Counter("exec.subnormals.flushed") }).Add(n)
	}
}

// ForEachErr runs fn(i) for i in [0, n) on the executor's threads and
// returns the first error any task produced. The batch runs on the shared
// worker pool (matrix.Parallel) with at most min(parallelism, n, GOMAXPROCS)
// participants, the caller among them. Once a task fails, remaining tasks
// are cancelled (claimed without running) — the task-level cancellation a
// failed stage attempt needs so a worker death doesn't compute the rest of
// the stage for nothing. Tasks already running
// are allowed to finish. Participants also observe ctx between tasks: once it
// is cancelled (or its deadline passes) the batch aborts at the next task
// boundary the same way, and ForEachErr returns the context's error — block
// tasks are short, which makes the boundary a prompt cancellation point. The
// batch span parents under the span ctx carries (obs.Tracer.Parent).
func (e *Executor) ForEachErr(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := e.parallelism
	if workers > n {
		workers = n
	}
	// Observability: one span per task batch with a queue-wait vs compute
	// split. A task's queue wait is the time between batch submission and a
	// worker picking it up; its compute time is the fn call itself. The
	// wrapping only happens when a tracer is attached, so the disabled path
	// costs one atomic load.
	if tr := e.tracer.Load(); tr.Enabled() {
		batchStart := time.Now()
		batch := tr.Start("sched", "batch", tr.Parent(ctx),
			obs.Int64("tasks", int64(n)), obs.Int64("workers", int64(workers)))
		var waitNs, computeNs atomic.Int64
		inner := fn
		fn = func(i int) error {
			ts := time.Now()
			waitNs.Add(ts.Sub(batchStart).Nanoseconds())
			err := inner(i)
			computeNs.Add(time.Since(ts).Nanoseconds())
			return err
		}
		defer func() {
			tr.End(batch,
				obs.Float64("queue_wait_s", float64(waitNs.Load())/1e9),
				obs.Float64("compute_s", float64(computeNs.Load())/1e9))
			if m := e.metrics.Load(); m != nil {
				m.observeBatch(n, float64(computeNs.Load())/1e9)
			}
		}()
	}
	b := batches.Get().(*batch)
	b.ctx, b.fn = ctx, fn
	matrix.Parallel(n, workers, b.task)
	var err error
	if p := b.firstErr.Load(); p != nil {
		err = *p
	}
	b.ctx, b.fn = nil, nil
	b.firstErr.Store(nil)
	batches.Put(b)
	return err
}

// batch is the state of one ForEachErr call. Batches are reused, each with
// its task bound once, so a call hands the pool a func value without making
// one.
type batch struct {
	ctx      context.Context
	fn       func(i int) error
	firstErr atomic.Pointer[error]
	task     func(i int) // run, bound when the batch was made
}

var batches = sync.Pool{New: func() any {
	b := new(batch)
	b.task = b.run
	return b
}}

// run is task i of the batch, skipped once a task has failed (the batch is
// cancelled) or the batch's context is done.
func (b *batch) run(i int) {
	if b.firstErr.Load() != nil {
		return
	}
	err := b.ctx.Err()
	if err == nil {
		err = b.fn(i)
	}
	if err != nil {
		first := err // declared here, so only a failure moves it to the heap
		b.firstErr.CompareAndSwap(nil, &first)
	}
}

// MulStrategy selects the local aggregation strategy for blocked matrix
// multiplication.
type MulStrategy int

// The two local multiplication strategies compared in Section 5.3.
const (
	// InPlace packages all block products contributing to one result block
	// into a single task and accumulates them directly into the result
	// block — no intermediate buffers (the DMac default).
	InPlace MulStrategy = iota
	// Buffer parallelizes individual block products, materializes every
	// intermediate product block, and aggregates at the end (the traditional
	// approach; memory-hungry).
	Buffer
)

// String names the strategy.
func (s MulStrategy) String() string {
	switch s {
	case InPlace:
		return "in-place"
	case Buffer:
		return "buffer"
	default:
		return fmt.Sprintf("MulStrategy(%d)", int(s))
	}
}

// MulTrans multiplies op(a) * op(b) with the chosen aggregation strategy,
// where op(x) is x or its transpose according to the aT/bT flags; a plain
// product passes false, false. Both grids must share a block size. The
// result is a dense grid (worst-case sparsity of a product is 1, Section
// 5.1). Transposition is fused into the block
// kernels: logical block (bi, bk) of a transposed grid is stored block
// (bk, bi) read by stride, so no transposed grid or block is ever
// materialized on the multiply path. The task batches observe ctx and hang
// their spans under the span it carries. When a metrics registry is attached
// the achieved GFLOPS of the whole multiply is recorded under kernel.mul.* and
// the current intra-op parallelism under the kernel.workers gauge.
func (e *Executor) MulTrans(ctx context.Context, a, b *matrix.Grid, aT, bT bool, strategy MulStrategy) (*matrix.Grid, error) {
	aRows, aCols := gridDims(a, aT)
	bRows, bCols := gridDims(b, bT)
	if aCols != bRows {
		return nil, fmt.Errorf("%w: %dx%d * %dx%d", matrix.ErrShape, aRows, aCols, bRows, bCols)
	}
	if a.BlockSize() != b.BlockSize() {
		return nil, fmt.Errorf("%w: block sizes %d vs %d", matrix.ErrShape, a.BlockSize(), b.BlockSize())
	}
	m := e.metrics.Load()
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	var (
		out *matrix.Grid
		err error
	)
	switch strategy {
	case InPlace:
		out, err = e.mulInPlace(ctx, a, b, aT, bT)
	case Buffer:
		out, err = e.mulBuffer(ctx, a, b, aT, bT)
	default:
		return nil, fmt.Errorf("sched: unknown multiplication strategy %d", strategy)
	}
	if err != nil {
		return nil, err
	}
	if m != nil {
		m.observeMul(cost.MulFLOPs(a.NNZ(), b.NNZ(), aCols), time.Since(start).Seconds())
	}
	return out, nil
}

// gridDims returns the logical dimensions of op(g).
func gridDims(g *matrix.Grid, t bool) (rows, cols int) {
	if t {
		return g.Cols(), g.Rows()
	}
	return g.Rows(), g.Cols()
}

// mulInPlace: one task per result block; each task accumulates its full
// inner-dimension sum into a single result block, cleared first when the
// pool hands back a used one, so every element sums the same products in the
// same order into a zero, and flushes it. A cancelled context stops the
// batch and is returned.
func (e *Executor) mulInPlace(ctx context.Context, a, b *matrix.Grid, aT, bT bool) (*matrix.Grid, error) {
	aRows, _ := gridDims(a, aT)
	_, bCols := gridDims(b, bT)
	out := matrix.NewGridSlots(aRows, bCols, a.BlockSize())
	inner := a.BlockCols()
	if aT {
		inner = a.BlockRows()
	}
	r := mulRuns.Get().(*mulRun)
	r.e, r.a, r.b, r.aT, r.bT, r.out, r.inner = e, a, b, aT, bT, out, inner
	err := e.ForEachErr(ctx, out.BlockRows()*out.BlockCols(), r.task)
	*r = mulRun{task: r.task}
	mulRuns.Put(r)
	if err != nil {
		return nil, err
	}
	return out.Filled(), nil
}

// mulRun is the state of one in-place multiply. Runs are reused, each with
// its task bound once, so a multiply hands ForEachErr a func value without
// making one.
type mulRun struct {
	e      *Executor
	a, b   *matrix.Grid
	aT, bT bool
	out    *matrix.Grid
	inner  int
	task   func(idx int) error // run, bound when the run was made
}

var mulRuns = sync.Pool{New: func() any {
	r := new(mulRun)
	r.task = r.run
	return r
}}

// run computes result block idx, in row-major block order.
func (r *mulRun) run(idx int) error {
	bcols := r.out.BlockCols()
	bi, bj := idx/bcols, idx%bcols
	rows, cols := r.out.BlockDims(bi, bj)
	dst := r.e.result(rows, cols, true)
	for k := 0; k < r.inner; k++ {
		// Accumulate directly into the result block: no intermediate
		// product blocks exist at any point.
		if err := matrix.MulAddTransInto(dst, gridBlock(r.a, bi, k, r.aT), gridBlock(r.b, k, bj, r.bT), r.aT, r.bT); err != nil {
			panic(err) // shapes were validated by MulTrans
		}
	}
	r.e.noteFlushed(int64(matrix.FlushSubnormals(dst.Data)))
	r.out.SetBlock(bi, bj, dst)
	return nil
}

// gridBlock returns the block at logical block coordinates (bi, bj) of
// op(g): the stored block at (bj, bi) when transposed.
func gridBlock(g *matrix.Grid, bi, bj int, t bool) matrix.Block {
	if t {
		return g.Block(bj, bi)
	}
	return g.Block(bi, bj)
}

// mulBuffer: one task per (bi, k, bj) block product; all intermediate blocks
// are buffered and aggregated afterwards. The intermediates are always fresh
// (the Figure 7 baseline's cost); only the aggregated result blocks come
// from the pool, and only they are flushed.
func (e *Executor) mulBuffer(ctx context.Context, a, b *matrix.Grid, aT, bT bool) (*matrix.Grid, error) {
	aRows, _ := gridDims(a, aT)
	_, bCols := gridDims(b, bT)
	out := matrix.NewGridSlots(aRows, bCols, a.BlockSize())
	brows, bcols := out.BlockRows(), out.BlockCols()
	inner := a.BlockCols()
	if aT {
		inner = a.BlockRows()
	}
	intermediates := make([]*matrix.DenseBlock, brows*bcols*inner)
	err := e.ForEachErr(ctx, brows*bcols*inner, func(idx int) error {
		bi := idx / (bcols * inner)
		rem := idx % (bcols * inner)
		bj, k := rem/inner, rem%inner
		r, c := out.BlockDims(bi, bj)
		prod := matrix.NewDense(r, c)
		e.mem.Add(prod.MemBytes())
		if err := matrix.MulAddTransInto(prod, gridBlock(a, bi, k, aT), gridBlock(b, k, bj, bT), aT, bT); err != nil {
			panic(err)
		}
		intermediates[idx] = prod
		return nil
	})
	if err == nil {
		// Aggregation pass: sum the buffered products per result block.
		err = e.ForEachErr(ctx, brows*bcols, func(idx int) error {
			bi, bj := idx/bcols, idx%bcols
			r, c := out.BlockDims(bi, bj)
			dst := e.result(r, c, true)
			for k := 0; k < inner; k++ {
				prod := intermediates[(bi*bcols+bj)*inner+k]
				for i, v := range prod.Data {
					dst.Data[i] += v
				}
			}
			e.noteFlushed(int64(matrix.FlushSubnormals(dst.Data)))
			out.SetBlock(bi, bj, dst)
			return nil
		})
	}
	// The intermediates become garbage only after aggregation completes.
	for _, p := range intermediates {
		if p != nil {
			e.mem.Sub(p.MemBytes())
		}
	}
	if err != nil {
		return nil, err
	}
	return out.Filled(), nil
}

// Cells evaluates a cell-wise tree over grids of one shape and block size, one
// task and one pass per block (matrix.CellTree.EvalResult: the result rule
// holds for every link's value, so a fused tree gives the bits its links run
// one by one would). It is the only
// entry point for cell-wise work: a single +, *c or sigmoid is a tree of one
// link. The tree's parameters must be bound.
//
// overwrite names the input whose blocks receive the result in place, -1 for
// none: the caller must own that grid outright and drop it afterwards. Only
// blocks evaluated densely are reused; any other gets a result block of its
// own — from the pool when every input block is dense (the evaluator writes
// each of its cells, so a used one needs no clearing), from the evaluator
// otherwise.
//
// The result's NNZ is counted by the tasks as they write and seeded into the
// grid. nnz, when not nil, has an entry per link and receives, for a scalar
// link, the stored elements of its operand (what cost.ScalarFLOPs charges).
// The batch observes ctx and hangs its span under the span it carries.
func (e *Executor) Cells(ctx context.Context, t *matrix.CellTree, ins []*matrix.Grid, overwrite int, nnz []int64) (*matrix.Grid, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if len(ins) != t.Inputs {
		return nil, fmt.Errorf("%w: cell tree over %d inputs given %d grids", matrix.ErrShape, t.Inputs, len(ins))
	}
	if nnz != nil && len(nnz) != len(t.Links) {
		return nil, fmt.Errorf("sched: %d nnz entries for a cell tree of %d links", len(nnz), len(t.Links))
	}
	for _, l := range t.Links {
		if l.Param != "" {
			return nil, fmt.Errorf("sched: cell tree parameter %q is unbound", l.Param)
		}
	}
	a := ins[0]
	for _, b := range ins[1:] {
		if a.Rows() != b.Rows() || a.Cols() != b.Cols() || a.BlockSize() != b.BlockSize() {
			return nil, fmt.Errorf("%w: %dx%d/bs=%d vs %dx%d/bs=%d", matrix.ErrShape,
				a.Rows(), a.Cols(), a.BlockSize(), b.Rows(), b.Cols(), b.BlockSize())
		}
	}
	c := cellsRuns.Get().(*cellsRun)
	defer c.release()
	out := matrix.NewGridSlots(a.Rows(), a.Cols(), a.BlockSize())
	c.e, c.t, c.ins, c.out, c.overwrite = e, t, append(c.ins, ins...), out, overwrite
	if cap(c.counts) < len(t.Links)+1 {
		c.counts = make([]atomic.Int64, len(t.Links)+1)
	}
	c.counts = c.counts[:len(t.Links)+1]
	if err := e.ForEachErr(ctx, a.BlockRows()*a.BlockCols(), c.task); err != nil {
		return nil, err
	}
	for j := range nnz {
		nnz[j] = c.counts[j].Load()
	}
	out.SeedNNZ(int(c.counts[len(t.Links)].Load()))
	return out.Filled(), nil
}

// cellsRun is the state of one Cells call. Runs are reused, each with its
// task bound once, and a task gathers its blocks and counts on its stack, so
// a tree of up to cellsOnStack inputs and links evaluates without
// allocating.
type cellsRun struct {
	e *Executor
	t *matrix.CellTree
	// ins is the call's inputs, copied into the run's own storage.
	ins       []*matrix.Grid
	out       *matrix.Grid
	overwrite int
	// counts sums the tasks' nnz counts: one per link and the result's.
	counts []atomic.Int64
	task   func(idx int) error // run, bound when the run was made
}

// cellsOnStack is the most inputs, and links plus one, a Cells task gathers
// on its stack.
const cellsOnStack = 8

var cellsRuns = sync.Pool{New: func() any {
	c := new(cellsRun)
	c.task = c.run
	return c
}}

// release drops what the call referred to and returns c to cellsRuns.
func (c *cellsRun) release() {
	for i := range c.counts {
		c.counts[i].Store(0)
	}
	clear(c.ins)
	c.e, c.t, c.ins, c.out = nil, nil, c.ins[:0], nil
	cellsRuns.Put(c)
}

// run evaluates result block idx, in row-major block order.
func (c *cellsRun) run(idx int) error {
	e, ins := c.e, c.ins
	bcols := ins[0].BlockCols()
	bi, bj := idx/bcols, idx%bcols
	var bbuf [cellsOnStack]matrix.Block
	blocks := bbuf[:0]
	if len(ins) > len(bbuf) {
		blocks = make([]matrix.Block, 0, len(ins))
	}
	dense := true
	for _, g := range ins {
		b := g.Block(bi, bj)
		_, ok := b.(*matrix.DenseBlock)
		dense = dense && ok
		blocks = append(blocks, b)
	}
	var dst *matrix.DenseBlock
	if c.overwrite >= 0 {
		dst, _ = blocks[c.overwrite].(*matrix.DenseBlock)
	}
	if dst == nil && dense {
		dst = e.result(blocks[0].Rows(), blocks[0].Cols(), false)
	}
	var lbuf [cellsOnStack]int64
	local := lbuf[:0]
	if len(c.counts) > len(lbuf) {
		local = make([]int64, 0, len(c.counts))
	}
	local = local[:len(c.counts)]
	blk, flushed, err := c.t.EvalResult(blocks, dst, local)
	if err != nil {
		return err
	}
	e.noteFlushed(flushed)
	if blk != matrix.Block(dst) {
		e.mem.Add(blk.MemBytes())
	}
	for j, n := range local {
		if n != 0 {
			c.counts[j].Add(n)
		}
	}
	c.out.SetBlock(bi, bj, blk)
	return nil
}

// Transpose transposes a grid in parallel (a purely local operation: this is
// what makes the Transpose dependency communication-free). Dense result
// blocks come from the installed pool like every other result block. Each
// call counts against exec.transpose.count when metrics are attached, which
// is how tests verify that the fused multiply path materializes no
// transposed grid. Its batch span parents under the span ctx carries, but it
// always runs to the end, whatever ctx's cancellation: a lazy view is
// realized in place (dist.Cluster.MaterializedGrid), and a half-transposed
// grid must never take the view's place.
func (e *Executor) Transpose(ctx context.Context, a *matrix.Grid) *matrix.Grid {
	if m := e.metrics.Load(); m != nil {
		m.transposes.Get(func() *obs.Counter { return m.reg.Counter("exec.transpose.count") }).Inc()
	}
	out := matrix.NewGridSlots(a.Cols(), a.Rows(), a.BlockSize())
	bcols := a.BlockCols()
	e.ForEachErr(context.WithoutCancel(ctx), a.BlockRows()*bcols, func(idx int) error {
		bi, bj := idx/bcols, idx%bcols
		var blk matrix.Block
		if d, ok := a.Block(bi, bj).(*matrix.DenseBlock); ok {
			t := e.result(d.Cols(), d.Rows(), false)
			d.TransposeInto(t)
			blk = t
		} else {
			blk = a.Block(bi, bj).Transpose()
			e.mem.Add(blk.MemBytes())
		}
		out.SetBlock(bj, bi, blk)
		return nil
	})
	return out.Filled()
}
