package serve

import (
	"dmac/internal/obs"
	"dmac/internal/workload"
)

// Tracers returns the per-slot tracers, so a test can see that each job's
// spans were drained from its slot.
func (s *Service) Tracers() []*obs.Tracer {
	s.mu.Lock()
	defer s.mu.Unlock()
	trs := make([]*obs.Tracer, len(s.slots))
	for i, sl := range s.slots {
		trs[i] = sl.tracer
	}
	return trs
}

// waiting is the number of requests sharing key's build in flight, 0 when
// none is.
func (c *jobCache) waiting(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b := c.building[key]; b != nil {
		return b.requests
	}
	return 0
}

// put offers a fresh build of key to the cache, as one request's build
// would be offered.
func (c *jobCache) put(key string, j *workload.BuiltJob) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.offerLocked(key, j)
}
