package serve

import (
	"time"

	"dmac/internal/obs"
)

// CacheStats summarizes one shared cache for /v1/stats.
type CacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes,omitempty"`
	// Placed counts the jobs that started with their cached inputs where
	// their slot had left them (job cache only).
	Placed int64 `json:"placed,omitempty"`
}

// TenantStats is one tenant's live and cumulative accounting.
type TenantStats struct {
	Queued       int   `json:"queued"`
	Running      int   `json:"running"`
	RunningBytes int64 `json:"running_bytes"`
	Submitted    int64 `json:"submitted"`
	Completed    int64 `json:"completed"`
	Rejected     int64 `json:"rejected"`
}

// Stats is the /v1/stats snapshot.
type Stats struct {
	UptimeSec float64 `json:"uptime_sec"`
	Draining  bool    `json:"draining"`
	// Pool shape: the Options.Slots engines and how many of them are idle.
	SlotsTotal int `json:"slots_total"`
	SlotsFree  int `json:"slots_free"`
	QueueDepth int `json:"queue_depth"`
	Running    int `json:"running"`

	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	Rejected  int64 `json:"rejected"`

	// QueueWaitCount/Sum and RunCount/Sum summarize the per-tenant queue-wait
	// and run-time histogram families (seconds) over all tenants; the full
	// distributions live in the metrics registry.
	QueueWaitCount int64   `json:"queue_wait_count"`
	QueueWaitSum   float64 `json:"queue_wait_sum_sec"`
	RunCount       int64   `json:"run_count"`
	RunSum         float64 `json:"run_sum_sec"`

	// Quantiles estimated from the same merged histograms by linear
	// interpolation within buckets (obs.Histogram.Quantile), so clients and
	// benches read latency percentiles from the service instead of
	// recomputing them from raw samples.
	QueueWaitP50Sec float64 `json:"queue_wait_p50_sec"`
	QueueWaitP95Sec float64 `json:"queue_wait_p95_sec"`
	QueueWaitP99Sec float64 `json:"queue_wait_p99_sec"`
	RunP50Sec       float64 `json:"run_p50_sec"`
	RunP95Sec       float64 `json:"run_p95_sec"`
	RunP99Sec       float64 `json:"run_p99_sec"`

	// ResultsRetainedBytes is the bytes of the finished results' grids the
	// service keeps for Result: at most its retention budget beside the
	// newest result.
	ResultsRetainedBytes int64 `json:"results_retained_bytes"`
	// TracesRetainedBytes is the bytes of the flight recorder's packed job
	// traces: at most its ring of recent jobs, a few KB each.
	TracesRetainedBytes int64 `json:"traces_retained_bytes"`

	PlanCache CacheStats             `json:"plan_cache"`
	JobCache  CacheStats             `json:"job_cache"`
	Tenants   map[string]TenantStats `json:"tenants"`
}

// Stats snapshots the service for /v1/stats and the bench load generator.
// Live state comes from the service; every count, sum and quantile is
// derived from the labeled serve.tenant.* families.
func (s *Service) Stats() Stats {
	ph, pm, pe := s.shared.Stats()
	jh, jm, je, jb := s.jobCache.stats()
	st := Stats{
		UptimeSec: time.Since(s.start).Seconds(),
		PlanCache: CacheStats{Hits: ph, Misses: pm, Entries: pe},
		JobCache:  CacheStats{Hits: jh, Misses: jm, Entries: je, Bytes: jb, Placed: s.cPlaced.Value()},
		Tenants:   make(map[string]TenantStats),

		TracesRetainedBytes: s.flight.retainedBytes(),
	}

	submitted := sumBy(s.vSubmitted.Snapshot(), "tenant")
	rejected := sumBy(s.vRejected.Snapshot(), "tenant")
	finished := s.vFinished.Snapshot()
	completed, byState := sumBy(finished, "tenant"), sumBy(finished, "state")
	st.Submitted, st.Rejected = sumAll(submitted), sumAll(rejected)
	st.Completed = byState[string(StateDone)]
	st.Failed = byState[string(StateFailed)]
	st.Canceled = byState[string(StateCanceled)]

	wait := mergeHistograms(s.vQueueWait.Snapshot())
	st.QueueWaitCount, st.QueueWaitSum = wait.Count, wait.Sum
	st.QueueWaitP50Sec, st.QueueWaitP95Sec, st.QueueWaitP99Sec = wait.Quantile(0.50), wait.Quantile(0.95), wait.Quantile(0.99)
	run := mergeHistograms(s.vRunSeconds.Snapshot())
	st.RunCount, st.RunSum = run.Count, run.Sum
	st.RunP50Sec, st.RunP95Sec, st.RunP99Sec = run.Quantile(0.50), run.Quantile(0.95), run.Quantile(0.99)

	s.mu.Lock()
	defer s.mu.Unlock()
	st.Draining = s.draining
	st.SlotsTotal = len(s.slots)
	st.SlotsFree = len(s.freeSlots)
	st.QueueDepth = s.q.size
	st.Running = s.runningLocked()
	st.ResultsRetainedBytes = s.retainedBytes
	for name, ts := range s.tenants {
		st.Tenants[name] = TenantStats{
			Queued:       ts.queued,
			Running:      ts.running,
			RunningBytes: ts.runningBytes,
			Submitted:    submitted[name],
			Completed:    completed[name],
			Rejected:     rejected[name],
		}
	}
	return st
}

// sumBy totals a counter family's children by the value of one label.
func sumBy(children []obs.LabeledCounterSnapshot, label string) map[string]int64 {
	out := make(map[string]int64)
	for _, c := range children {
		out[c.Labels[label]] += c.Value
	}
	return out
}

func sumAll(byLabel map[string]int64) int64 {
	var n int64
	for _, v := range byLabel {
		n += v
	}
	return n
}

// mergeHistograms folds a histogram family's children into one distribution.
// Bucket counts add exactly, so its quantiles are those of one histogram that
// saw every observation.
func mergeHistograms(children []obs.LabeledHistogramSnapshot) obs.HistogramSnapshot {
	var m obs.HistogramSnapshot
	for _, c := range children {
		if m.Counts == nil {
			m.Bounds, m.Counts = c.Hist.Bounds, make([]int64, len(c.Hist.Counts))
		}
		for i, n := range c.Hist.Counts {
			m.Counts[i] += n
		}
		m.Count += c.Hist.Count
		m.Sum += c.Hist.Sum
	}
	return m
}
