package main

import (
	"math"
	"sort"
)

// metricDef is one row of BENCHMARK.json. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of DMac sees, the same for every workload. One
// bound serves all five workloads, so each is set by the noisiest of them on
// the reference host (README.md, "Reference numbers and spread"): the two
// that live in system calls, pagerank_wire and gnmf_ckpt, spread 10-13 %
// between identical runs when the shared host is busy. -compare also marks
// what exceeds a workload's own spread.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"op_p50_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_bytes", "bytes", "lower", 0.25},
	{"comm_bytes", "bytes", "lower", 0.05},
}

// perLayer lists every per-layer metric of the traced run, <module>.<metric>.
// A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	// The layer ladder: the workload's own program, one layer added per rung.
	{"matrix.kernel_op_s", "s", "lower", 0},
	{"sched.local_op_s", "s", "lower", 0},
	{"dist.inproc_op_s", "s", "lower", 0},
	{"transport.wire_op_s", "s", "lower", 0},
	{"engine.ckpt_op_s", "s", "lower", 0},
	{"serve.job_op_s", "s", "lower", 0},
	{"matrix.kernel_gflops", "GFLOP/s", "higher", 0},
	{"sched.speedup", "x", "higher", 0},
	{"sched.block_tasks_per_op", "count", "lower", 0},
	{"dist.overhead_s", "s", "lower", 0},
	{"transport.wire_added_s", "s", "lower", 0},
	{"transport.wire_mbps", "MB/s", "higher", 0},
	{"engine.ckpt_added_s", "s", "lower", 0},
	{"serve.added_s", "s", "lower", 0},
	// Planning.
	{"rewrite.rewrite_s", "s", "lower", 0},
	{"rewrite.decisions", "count", "higher", 0},
	{"engine.plan_s", "s", "lower", 0},
	{"core.plan_stages", "count", "lower", 0},
	{"core.plan_ops", "count", "lower", 0},
	{"engine.first_run_s", "s", "lower", 0},
	{"engine.plan_cache_hit_share", "share", "higher", 0},
	{"engine.stage_wall_s", "s", "lower", 0},
	{"engine.run_overhead_s", "s", "lower", 0},
	// The cost model against the clock, per op of the dist.inproc rung.
	// model-s are the cost model's seconds: computed, exact for a seed.
	{"dist.comm_events", "count", "lower", 0},
	{"dist.shuffles", "count", "lower", 0},
	{"dist.broadcasts", "count", "lower", 0},
	{"dist.flops", "flop", "lower", 0},
	{"dist.model_compute_s", "model-s", "lower", 0},
	{"dist.model_network_s", "model-s", "lower", 0},
	{"dist.model_s", "model-s", "lower", 0},
	{"dist.model_over_wall", "x", "lower", 0},
	// The wire, over the timed ops.
	{"transport.wire_bytes", "bytes", "lower", 0},
	{"transport.wire_frames", "count", "lower", 0},
	{"transport.wire_over_comm", "x", "lower", 0},
	// Durability.
	{"engine.ckpt_s_per_op", "s", "lower", 0},
	{"engine.ckpt_bytes_per_op", "bytes", "lower", 0},
	{"engine.ckpt_mbps", "MB/s", "higher", 0},
	{"mio.write_mbps", "MB/s", "higher", 0},
	{"mio.read_mbps", "MB/s", "higher", 0},
	// The job service.
	{"serve.submit_s", "s", "lower", 0},
	{"serve.queue_wait_p50_s", "s", "lower", 0},
	{"serve.run_p50_s", "s", "lower", 0},
	{"serve.overhead_p50_s", "s", "lower", 0},
	{"serve.hot_op_p50_s", "s", "lower", 0},
	{"serve.fresh_op_p50_s", "s", "lower", 0},
	{"serve.jobs_per_s", "1/s", "higher", 0},
	{"serve.rejected", "count", "lower", 0},
	{"serve.job_cache_hit_share", "share", "higher", 0},
	{"serve.plan_cache_hit_share", "share", "higher", 0},
	{"workload.build_pagerank_s", "s", "lower", 0},
	{"workload.build_gram_s", "s", "lower", 0},
	{"workload.build_blend_s", "s", "lower", 0},
	{"workload.generate_s", "s", "lower", 0},
	// The Go runtime and the benchmark itself, over the timed ops.
	{"runtime.alloc_bytes_per_op", "bytes", "lower", 0},
	{"runtime.mallocs_per_op", "count", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_s", "s", "lower", 0},
	{"bench.ops", "count", "higher", 0},
	{"bench.ops_failed", "count", "lower", 0},
	{"bench.wall_sum_s", "s", "lower", 0},
	{"bench.op_tail_s", "s", "lower", 0},
	{"bench.op_tail_pct", "%", "higher", 0},
	{"bench.op_iqr_s", "s", "lower", 0},
	{"bench.trace_overhead_share", "share", "lower", 0},
	{"obs.attach_overhead_share", "share", "lower", 0},
	{"obs.spans_per_op", "count", "lower", 0},
}

// Value is one measured number with its unit.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics maps metric names to values.
type Metrics map[string]Value

// fill gives every definition a value, taking missing ones as 0 (a layer
// the workload does not exercise), and drops names outside defs.
func fill(defs []metricDef, vals map[string]float64) Metrics {
	m := make(Metrics, len(defs))
	for _, d := range defs {
		m[d.Name] = Value{Value: vals[d.Name], Unit: d.Unit}
	}
	return m
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between order statistics (0 for no data).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles are Python's statistics.quantiles(xs, n=4) first and third cut
// points (the exclusive method), which is how the driver measures spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// tail is the highest usual percentile with at least ten samples beyond it
// (p80 at 50 ops, p95 at 200, p99 from 1000), falling back to the median.
func tail(xs []float64) (pct, v float64) {
	for _, permille := range []int{999, 990, 950, 900, 800, 750} {
		if len(xs)*(1000-permille) >= 10*1000 {
			return float64(permille) / 10, quantile(xs, float64(permille)/1000)
		}
	}
	return 50, median(xs)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// added is the time a layer adds over the rung below it. It floors at 0: a
// negative difference means the two rungs cannot be told apart at this
// resolution.
func added(upper, lower float64) float64 { return math.Max(0, upper-lower) }
