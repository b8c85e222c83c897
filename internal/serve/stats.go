package serve

import "time"

// CacheStats summarizes one shared cache for /v1/stats.
type CacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes,omitempty"`
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

	// QueueWaitCount/Sum summarize the queue-wait histogram (seconds); the
	// full distribution lives in the metrics registry.
	QueueWaitCount int64   `json:"queue_wait_count"`
	QueueWaitSum   float64 `json:"queue_wait_sum_sec"`
	RunCount       int64   `json:"run_count"`
	RunSum         float64 `json:"run_sum_sec"`

	// Quantiles estimated from the server-side histograms by linear
	// interpolation within buckets (obs.Histogram.Quantile), so clients and
	// benches read latency percentiles from the service instead of
	// recomputing them from raw samples.
	QueueWaitP50Sec float64 `json:"queue_wait_p50_sec"`
	QueueWaitP95Sec float64 `json:"queue_wait_p95_sec"`
	QueueWaitP99Sec float64 `json:"queue_wait_p99_sec"`
	RunP50Sec       float64 `json:"run_p50_sec"`
	RunP95Sec       float64 `json:"run_p95_sec"`
	RunP99Sec       float64 `json:"run_p99_sec"`

	PlanCache CacheStats             `json:"plan_cache"`
	JobCache  CacheStats             `json:"job_cache"`
	Tenants   map[string]TenantStats `json:"tenants"`
}

// Stats snapshots the service for /v1/stats and the bench load generator.
func (s *Service) Stats() Stats {
	ph, pm, pe := s.shared.Stats()
	jh, jm, je, jb := s.jobCache.stats()
	st := Stats{
		UptimeSec: time.Since(s.start).Seconds(),
		PlanCache: CacheStats{Hits: ph, Misses: pm, Entries: pe},
		JobCache:  CacheStats{Hits: jh, Misses: jm, Entries: je, Bytes: jb},
		Tenants:   make(map[string]TenantStats),

		Submitted:      s.cSubmitted.Value(),
		Completed:      s.cCompleted.Value(),
		Failed:         s.cFailed.Value(),
		Canceled:       s.cCanceled.Value(),
		Rejected:       s.cRejected.Value(),
		QueueWaitCount: s.hQueueWait.Count(),
		QueueWaitSum:   s.hQueueWait.Sum(),
		RunCount:       s.hRunSeconds.Count(),
		RunSum:         s.hRunSeconds.Sum(),

		QueueWaitP50Sec: s.hQueueWait.Quantile(0.50),
		QueueWaitP95Sec: s.hQueueWait.Quantile(0.95),
		QueueWaitP99Sec: s.hQueueWait.Quantile(0.99),
		RunP50Sec:       s.hRunSeconds.Quantile(0.50),
		RunP95Sec:       s.hRunSeconds.Quantile(0.95),
		RunP99Sec:       s.hRunSeconds.Quantile(0.99),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st.Draining = s.draining
	st.SlotsTotal = len(s.slots)
	st.SlotsFree = len(s.freeSlots)
	st.QueueDepth = s.q.size
	st.Running = s.running
	for name, ts := range s.tenants {
		st.Tenants[name] = TenantStats{
			Queued:       ts.queued,
			Running:      ts.running,
			RunningBytes: ts.runningBytes,
			Submitted:    ts.submitted,
			Completed:    ts.completed,
			Rejected:     ts.rejected,
		}
	}
	return st
}
