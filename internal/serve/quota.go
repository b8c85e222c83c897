package serve

import "time"

// TenantQuota bounds one tenant's footprint on the service. Zero values mean
// "use the service default" (Options.DefaultQuota), whose own zero values
// fall back to the built-in defaults below.
type TenantQuota struct {
	// MaxConcurrent caps the tenant's simultaneously running jobs.
	MaxConcurrent int
	// MaxQueued caps the tenant's jobs waiting in the admission queue.
	MaxQueued int
	// MaxBytes caps the summed EstimatedBytes of the tenant's running jobs,
	// priced by the planner's block memory model.
	MaxBytes int64
}

const (
	defaultMaxConcurrent = 2
	defaultMaxQueued     = 8
	defaultMaxBytes      = 256 << 20
)

func (q TenantQuota) withDefaults(def TenantQuota) TenantQuota {
	if q.MaxConcurrent <= 0 {
		q.MaxConcurrent = def.MaxConcurrent
	}
	if q.MaxQueued <= 0 {
		q.MaxQueued = def.MaxQueued
	}
	if q.MaxBytes <= 0 {
		q.MaxBytes = def.MaxBytes
	}
	if q.MaxConcurrent <= 0 {
		q.MaxConcurrent = defaultMaxConcurrent
	}
	if q.MaxQueued <= 0 {
		q.MaxQueued = defaultMaxQueued
	}
	if q.MaxBytes <= 0 {
		q.MaxBytes = defaultMaxBytes
	}
	return q
}

// tenantState is one tenant's live accounting, guarded by the service mutex.
// Its cumulative counts live in the serve.tenant.* metric families.
type tenantState struct {
	quota        TenantQuota
	queued       int
	running      int
	runningBytes int64
}

// canRun reports whether the tenant may start a job of the given price now.
func (t *tenantState) canRun(estBytes int64) bool {
	return t.running < t.quota.MaxConcurrent &&
		t.runningBytes+estBytes <= t.quota.MaxBytes
}

// queue is the bounded admission queue: FIFO within each priority level,
// higher priority (lower index) first. Guarded by the service mutex.
type queue struct {
	levels [numPriority][]*job
	size   int
}

func (q *queue) push(j *job) {
	q.levels[j.priority] = append(q.levels[j.priority], j)
	q.size++
}

// pop removes and returns the first job (in priority-then-FIFO order) whose
// tenant can run it now, per runnable. Skipping over-quota tenants keeps one
// saturated tenant from head-of-line-blocking everyone else's jobs.
func (q *queue) pop(runnable func(*job) bool) *job {
	for p := range q.levels {
		for i, j := range q.levels[p] {
			if runnable(j) {
				q.levels[p] = append(q.levels[p][:i], q.levels[p][i+1:]...)
				q.size--
				return j
			}
		}
	}
	return nil
}

// remove deletes a specific job (for cancellation while queued).
func (q *queue) remove(target *job) bool {
	for p := range q.levels {
		for i, j := range q.levels[p] {
			if j == target {
				q.levels[p] = append(q.levels[p][:i], q.levels[p][i+1:]...)
				q.size--
				return true
			}
		}
	}
	return false
}

// drain empties the queue and returns everything that was waiting.
func (q *queue) drain() []*job {
	var all []*job
	for p := range q.levels {
		all = append(all, q.levels[p]...)
		q.levels[p] = nil
	}
	q.size = 0
	return all
}

// retryAfter estimates a backoff hint proportional to the current backlog:
// deeper queues mean longer waits before capacity frees up.
func retryAfter(depth int) time.Duration {
	d := 100*time.Millisecond + time.Duration(depth)*50*time.Millisecond
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}
