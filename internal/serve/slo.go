package serve

import (
	"sort"
	"sync"
	"time"
)

// Per-tenant SLO tracking: every terminal job (done or failed; canceled jobs
// are client decisions and don't consume budget) is classified good or bad
// against the service's objectives — failed jobs and jobs whose end-to-end
// latency (queue + run) exceeds the latency objective are bad — and
// aggregated into rolling windows. The tracker reports, per tenant and per
// window, the error rate, the slow rate, and the burn rate: the ratio of the
// observed bad fraction to the budgeted bad fraction (1 - objective). A burn
// rate of 1 consumes the error budget exactly at the sustainable pace;
// multi-window burn rates (fast 5m window for pages, slow 1h window for
// tickets) are the standard SRE alerting signal.

// SLOConfig is the service-level objective every tenant is held to. Zero
// values fall back to the built-in defaults.
type SLOConfig struct {
	// Objective is the target fraction of good jobs, e.g. 0.99.
	Objective float64
	// LatencySec is the end-to-end latency objective: a job finishing
	// (successfully) later than this is slow, and slow jobs burn budget.
	LatencySec float64
}

const (
	defaultSLOObjective  = 0.99
	defaultSLOLatencySec = 5.0
)

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Objective <= 0 || c.Objective >= 1 {
		c.Objective = defaultSLOObjective
	}
	if c.LatencySec <= 0 {
		c.LatencySec = defaultSLOLatencySec
	}
	return c
}

// SLO window geometry: ten-second buckets in a ring wide enough for the
// longest window plus the current partial bucket, so recording never
// overwrites a bucket still inside any window.
const (
	sloBucketSec = 10
	sloRingLen   = 361
)

// sloWindows are the reported rolling windows (buckets per window).
var sloWindows = []struct {
	Name    string
	Buckets int
}{
	{"5m", 30},
	{"1h", 360},
}

type sloBucket struct {
	epoch      int64 // bucket timestamp in units of sloBucketSec; stale entries are skipped
	count      int64
	errors     int64
	slow       int64
	latencySum float64
}

type sloSeries [sloRingLen]sloBucket

// sloTracker aggregates per-tenant SLO windows. All methods are safe for
// concurrent use; now is injectable for deterministic window tests.
type sloTracker struct {
	mu      sync.Mutex
	cfg     SLOConfig
	now     func() time.Time
	tenants map[string]*sloSeries
}

func newSLOTracker(cfg SLOConfig) *sloTracker {
	return &sloTracker{
		cfg:     cfg.withDefaults(),
		now:     time.Now,
		tenants: make(map[string]*sloSeries),
	}
}

// record classifies one terminal job into the tenant's current bucket.
func (t *sloTracker) record(tenant string, latencySec float64, failed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.tenants[tenant]
	if !ok {
		s = new(sloSeries)
		t.tenants[tenant] = s
	}
	epoch := t.now().Unix() / sloBucketSec
	b := &s[epoch%sloRingLen]
	if b.epoch != epoch {
		*b = sloBucket{epoch: epoch}
	}
	b.count++
	b.latencySum += latencySec
	switch {
	case failed:
		b.errors++
	case latencySec > t.cfg.LatencySec:
		b.slow++
	}
}

// SLOWindow is one rolling window's aggregate for one tenant.
type SLOWindow struct {
	WindowSec float64 `json:"window_sec"`
	Count     int64   `json:"count"`
	Errors    int64   `json:"errors"`
	Slow      int64   `json:"slow"`
	// ErrorRate and SlowRate are fractions of the window's jobs; BadRate is
	// their sum (a job is bad for exactly one reason).
	ErrorRate      float64 `json:"error_rate"`
	SlowRate       float64 `json:"slow_rate"`
	BadRate        float64 `json:"bad_rate"`
	MeanLatencySec float64 `json:"mean_latency_sec"`
	// BurnRate is BadRate divided by the error budget (1 - objective): 1.0
	// burns the budget exactly at the sustainable pace.
	BurnRate float64 `json:"burn_rate"`
}

// TenantSLO is one tenant's /v1/slo entry.
type TenantSLO struct {
	Objective           float64              `json:"objective"`
	LatencyObjectiveSec float64              `json:"latency_objective_sec"`
	Windows             map[string]SLOWindow `json:"windows"`
}

// SLOSnapshot is the /v1/slo response body.
type SLOSnapshot struct {
	Tenants map[string]TenantSLO `json:"tenants"`
}

// snapshot aggregates every tenant's windows as of now.
func (t *sloTracker) snapshot() SLOSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := SLOSnapshot{Tenants: make(map[string]TenantSLO, len(t.tenants))}
	nowEpoch := t.now().Unix() / sloBucketSec
	names := make([]string, 0, len(t.tenants))
	for name := range t.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := t.tenants[name]
		ten := TenantSLO{
			Objective:           t.cfg.Objective,
			LatencyObjectiveSec: t.cfg.LatencySec,
			Windows:             make(map[string]SLOWindow, len(sloWindows)),
		}
		for _, w := range sloWindows {
			var win SLOWindow
			win.WindowSec = float64(w.Buckets * sloBucketSec)
			var latencySum float64
			for i := range s {
				b := &s[i]
				if b.epoch <= nowEpoch-int64(w.Buckets) || b.epoch > nowEpoch {
					continue
				}
				win.Count += b.count
				win.Errors += b.errors
				win.Slow += b.slow
				latencySum += b.latencySum
			}
			if win.Count > 0 {
				n := float64(win.Count)
				win.ErrorRate = float64(win.Errors) / n
				win.SlowRate = float64(win.Slow) / n
				win.BadRate = float64(win.Errors+win.Slow) / n
				win.MeanLatencySec = latencySum / n
				win.BurnRate = win.BadRate / (1 - t.cfg.Objective)
			}
			ten.Windows[w.Name] = win
		}
		snap.Tenants[name] = ten
	}
	return snap
}
