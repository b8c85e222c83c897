package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dmac/internal/autoscale"
	"dmac/internal/dist"
	"dmac/internal/engine"
	"dmac/internal/serve"
	"dmac/internal/workload"
)

// Open-loop load ramp for the elastic autoscaler: unlike a closed-loop
// generator (which politely slows down when the service is saturated, so a
// too-small pool just lowers throughput), an open-loop generator submits on a
// Poisson arrival process whose rate does not care how the service is doing —
// exactly the traffic that makes an undersized fixed pool blow its latency
// objective. The ramp runs warm → 10x surge → cool twice, once with the
// autoscaler on (pool starts at 1) and once with a fixed 1-slot pool, and the
// committed report shows the autoscaled pool absorbing the surge within the
// SLO target while the fixed pool queues its way to multi-second p99s.
//
// Rates are calibrated, not hardcoded: a throwaway 1-slot service measures
// the benchmark job's service time, and the surge rate is set to demand
// several slots' worth of capacity (clamped so the configured MaxSlots can
// still absorb it). Every job gets a unique seed parameter so the job cache
// never short-circuits the work.

// OpenLoopOptions configures the ramp. Zero values pick calibrated defaults.
type OpenLoopOptions struct {
	Workers   int
	BlockSize int
	Seed      int64
	// SurgeFactor is the surge-to-base arrival-rate ratio (default 10).
	SurgeFactor float64
	// MaxSlots bounds the autoscaled pool (default 6); the fixed baseline
	// always runs 1 slot.
	MaxSlots int
	// Phase durations (defaults 4s warm, 6s surge, 5s cool).
	WarmSec, SurgeSec, CoolSec float64
	// PaceCommSec is the real-time pacing per communication primitive
	// (dist.Config.PaceCommLatencySec; default 5ms). Pacing makes job wall
	// time genuine waiting, so pool capacity scales with slots rather than
	// host cores — without it, a CPU-bound job pool cannot beat a 1-slot
	// baseline on a small machine and the ramp demonstrates nothing.
	PaceCommSec float64
	Timeout     time.Duration
}

func (o OpenLoopOptions) withDefaults() OpenLoopOptions {
	if o.Workers <= 0 {
		o.Workers = DefaultWorkers
	}
	if o.BlockSize <= 0 {
		o.BlockSize = smallBlockSize
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.SurgeFactor <= 1 {
		o.SurgeFactor = 10
	}
	if o.MaxSlots <= 1 {
		o.MaxSlots = 6
	}
	if o.WarmSec <= 0 {
		o.WarmSec = 4
	}
	if o.SurgeSec <= 0 {
		o.SurgeSec = 6
	}
	if o.CoolSec <= 0 {
		o.CoolSec = 5
	}
	if o.PaceCommSec <= 0 {
		o.PaceCommSec = 0.005
	}
	if o.Timeout <= 0 {
		o.Timeout = 4 * time.Minute
	}
	return o
}

// openLoopJob is the single benchmark workload: sized for tens-of-millisecond
// service times so the ramp exercises capacity, not arithmetic. The unique
// per-job seed keeps the job cache out of the loop.
func openLoopJob(jobSeed int) (string, workload.Params) {
	return "pagerank", workload.Params{"nodes": 96, "iters": 3, "seed": float64(jobSeed)}
}

// OpenLoopPhase is one ramp phase's aggregate for one run.
type OpenLoopPhase struct {
	Name          string  `json:"name"`
	RatePerSec    float64 `json:"rate_per_sec"`
	DurationSec   float64 `json:"duration_sec"`
	Jobs          int     `json:"jobs"`
	Failed        int     `json:"failed"`
	Rejections    int64   `json:"rejections"`
	LatencyP50Sec float64 `json:"latency_p50_sec"`
	LatencyP95Sec float64 `json:"latency_p95_sec"`
	LatencyP99Sec float64 `json:"latency_p99_sec"`
	PeakSlots     int     `json:"peak_slots"`
}

// OpenLoopDecision is one autoscaler grow/shrink, timestamped relative to the
// run start so the committed trace is reproducible-looking and diffable.
type OpenLoopDecision struct {
	TSec      float64 `json:"t_sec"`
	Direction string  `json:"direction"`
	From      int     `json:"from"`
	To        int     `json:"to"`
	Reason    string  `json:"reason"`
}

// OpenLoopRun is one mode's (autoscaled or fixed) full ramp result.
type OpenLoopRun struct {
	Mode        string          `json:"mode"` // "autoscaled" | "fixed"
	StartSlots  int             `json:"start_slots"`
	PeakSlots   int             `json:"peak_slots"`
	FinalSlots  int             `json:"final_slots"`
	SurgeP99Sec float64         `json:"surge_p99_sec"`
	SLOHeld     bool            `json:"slo_held"`
	Phases      []OpenLoopPhase `json:"phases"`
	// Decisions is the autoscaler's grow/shrink trace (autoscaled run only).
	Decisions []OpenLoopDecision `json:"decisions,omitempty"`
	Ups       int64              `json:"ups,omitempty"`
	Downs     int64              `json:"downs,omitempty"`
}

// OpenLoopReport is the committed BENCH_autoscale.json shape.
type OpenLoopReport struct {
	Config struct {
		Workers         int     `json:"workers"`
		BlockSize       int     `json:"block_size"`
		Seed            int64   `json:"seed"`
		SurgeFactor     float64 `json:"surge_factor"`
		MaxSlots        int     `json:"max_slots"`
		ServiceSecEst   float64 `json:"service_sec_est"`
		BaseRatePerSec  float64 `json:"base_rate_per_sec"`
		SurgeRatePerSec float64 `json:"surge_rate_per_sec"`
		SLOTargetSec    float64 `json:"slo_target_sec"`
	} `json:"config"`
	Autoscaled OpenLoopRun `json:"autoscaled"`
	Fixed      OpenLoopRun `json:"fixed"`
	// Top-level verdicts for one-line jq checks.
	AutoHeldSLO      bool `json:"auto_held_slo"`
	FixedViolatedSLO bool `json:"fixed_violated_slo"`
}

// calibrateServiceSec measures the benchmark job's solo service time on a
// throwaway 1-slot pool (median of three) so arrival rates track the machine
// instead of a hardcoded guess.
func calibrateServiceSec(ctx context.Context, opts OpenLoopOptions) (float64, error) {
	svc, err := serve.NewService(serve.Options{
		Planner:       engine.DMac,
		Cluster:       openLoopCluster(opts),
		BlockSize:     opts.BlockSize,
		Slots:         1,
		QueueCapacity: 4,
		DefaultQuota:  serve.TenantQuota{MaxConcurrent: 2, MaxQueued: 2},
	})
	if err != nil {
		return 0, err
	}
	defer func() {
		stopCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = svc.Stop(stopCtx)
	}()
	var times []float64
	for i := 0; i < 3; i++ {
		name, params := openLoopJob(-1 - i)
		start := time.Now()
		st, err := svc.Submit(serve.JobSpec{Tenant: "calibrate", Workload: name, Params: params})
		if err != nil {
			return 0, err
		}
		fin, err := svc.Wait(ctx, st.ID)
		if err != nil {
			return 0, err
		}
		if fin.State != serve.StateDone {
			return 0, fmt.Errorf("calibration job %s: %s", fin.ID, fin.State)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return percentile(times, 0.5), nil
}

type olPhaseSpec struct {
	name string
	rate float64
	dur  time.Duration
}

// openLoopCluster is the ramp's cluster config: the standard scaled model
// plus real-time comm pacing.
func openLoopCluster(opts OpenLoopOptions) dist.Config {
	cfg := clusterConfig(opts.Workers)
	cfg.PaceCommLatencySec = opts.PaceCommSec
	return cfg
}

// runOpenLoop drives one ramp against one service configuration.
func runOpenLoop(ctx context.Context, opts OpenLoopOptions, mode string, asCfg *autoscale.Config, phases []olPhaseSpec, sloTarget float64) (*OpenLoopRun, error) {
	svc, err := serve.NewService(serve.Options{
		Planner:         engine.DMac,
		Cluster:         openLoopCluster(opts),
		BlockSize:       opts.BlockSize,
		Slots:           1,
		QueueCapacity:   128,
		DefaultQuota:    serve.TenantQuota{MaxConcurrent: 8, MaxQueued: 64, MaxBytes: 1 << 30},
		DefaultDeadline: 2 * time.Minute,
		Autoscale:       asCfg,
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		stopCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = svc.Stop(stopCtx)
	}()

	// Seed the run-time and bytes/sec EWMAs (and warm the plan cache) with
	// two uncounted jobs, so the autoscaler's model is calibrated before the
	// ramp starts — mirroring a service that has been up for a while.
	for i := 0; i < 2; i++ {
		name, params := openLoopJob(-100 - i)
		st, err := svc.Submit(serve.JobSpec{Tenant: "warmup", Workload: name, Params: params})
		if err != nil {
			return nil, err
		}
		if _, err := svc.Wait(ctx, st.ID); err != nil {
			return nil, err
		}
	}

	type phaseAgg struct {
		mu         sync.Mutex
		lats       []float64
		failed     int
		rejections int64
	}
	aggs := make([]*phaseAgg, len(phases))
	for i := range aggs {
		aggs[i] = &phaseAgg{}
	}

	// Slot sampler: tracks the pool's size curve so each phase can report its
	// peak. curPhase is the index the arrival loop is currently in.
	var curPhase atomic.Int32
	peaks := make([]atomic.Int32, len(phases))
	var overallPeak atomic.Int32
	samplerDone := make(chan struct{})
	samplerStop := make(chan struct{})
	go func() {
		defer close(samplerDone)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-samplerStop:
				return
			case <-t.C:
				st := svc.Stats()
				n := int32(st.SlotsTotal)
				if p := curPhase.Load(); p >= 0 && int(p) < len(peaks) {
					if n > peaks[p].Load() {
						peaks[p].Store(n)
					}
				}
				if n > overallPeak.Load() {
					overallPeak.Store(n)
				}
			}
		}
	}()

	start := time.Now()
	rng := rand.New(rand.NewSource(opts.Seed))
	var wg sync.WaitGroup
	jobSeq := 0
	for pi, ph := range phases {
		curPhase.Store(int32(pi))
		agg := aggs[pi]
		phaseStart := time.Now()
		for ctx.Err() == nil {
			gap := time.Duration(rng.ExpFloat64() / ph.rate * float64(time.Second))
			remaining := ph.dur - time.Since(phaseStart)
			if gap >= remaining {
				time.Sleep(remaining)
				break
			}
			time.Sleep(gap)
			jobSeq++
			seq := jobSeq
			wg.Add(1)
			go func() {
				defer wg.Done()
				arrival := time.Now()
				name, params := openLoopJob(seq)
				tenant := fmt.Sprintf("tenant-%d", seq%3)
				var st serve.JobStatus
				for {
					var err error
					st, err = svc.Submit(serve.JobSpec{Tenant: tenant, Workload: name, Params: params})
					if err == nil {
						break
					}
					var rej *serve.Rejection
					if errors.As(err, &rej) && rej.Retryable && ctx.Err() == nil {
						agg.mu.Lock()
						agg.rejections++
						agg.mu.Unlock()
						select {
						case <-time.After(rej.RetryAfter):
							continue
						case <-ctx.Done():
						}
					}
					// Non-retryable (or context over): count the job failed at
					// its observed latency so open-loop drops are never silent.
					agg.mu.Lock()
					agg.failed++
					agg.lats = append(agg.lats, time.Since(arrival).Seconds())
					agg.mu.Unlock()
					return
				}
				fin, err := svc.Wait(ctx, st.ID)
				lat := time.Since(arrival).Seconds()
				agg.mu.Lock()
				if err != nil || fin.State != serve.StateDone {
					agg.failed++
				}
				agg.lats = append(agg.lats, lat)
				agg.mu.Unlock()
			}()
		}
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		close(samplerStop)
		<-samplerDone
		return nil, fmt.Errorf("open-loop ramp timed out: %w", err)
	}

	// Let the autoscaler shrink back: poll until the pool is at min (or give
	// up after the down-cooldown has comfortably passed).
	finalSlots := svc.Stats().SlotsTotal
	if asCfg != nil {
		deadline := time.Now().Add(asCfg.ScaleDownCooldown*time.Duration(opts.MaxSlots) + 10*time.Second)
		for time.Now().Before(deadline) && ctx.Err() == nil {
			finalSlots = svc.Stats().SlotsTotal
			if finalSlots <= asCfg.Min {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	close(samplerStop)
	<-samplerDone

	run := &OpenLoopRun{Mode: mode, StartSlots: 1, FinalSlots: finalSlots}
	run.PeakSlots = int(overallPeak.Load())
	for pi, ph := range phases {
		agg := aggs[pi]
		pr := OpenLoopPhase{
			Name:          ph.name,
			RatePerSec:    ph.rate,
			DurationSec:   ph.dur.Seconds(),
			Jobs:          len(agg.lats),
			Failed:        agg.failed,
			Rejections:    agg.rejections,
			LatencyP50Sec: percentile(agg.lats, 0.50),
			LatencyP95Sec: percentile(agg.lats, 0.95),
			LatencyP99Sec: percentile(agg.lats, 0.99),
			PeakSlots:     int(peaks[pi].Load()),
		}
		run.Phases = append(run.Phases, pr)
		if ph.name == "surge" {
			run.SurgeP99Sec = pr.LatencyP99Sec
		}
	}
	run.SLOHeld = run.SurgeP99Sec <= sloTarget
	if asCfg != nil {
		for _, d := range svc.AutoscaleDecisions() {
			run.Decisions = append(run.Decisions, OpenLoopDecision{
				TSec:      d.At.Sub(start).Seconds(),
				Direction: d.Direction,
				From:      d.From,
				To:        d.To,
				Reason:    d.Reason,
			})
		}
		if as := svc.AutoscaleStatus(); as != nil {
			run.Ups, run.Downs = as.Ups, as.Downs
		}
	}
	return run, nil
}

// RunOpenLoop runs the calibrated warm/surge/cool ramp twice (autoscaled,
// then fixed 1-slot) and aggregates the comparison report.
func RunOpenLoop(opts OpenLoopOptions) (*OpenLoopReport, error) {
	opts = opts.withDefaults()
	ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
	defer cancel()

	svcSec, err := calibrateServiceSec(ctx, opts)
	if err != nil {
		return nil, fmt.Errorf("calibrate: %w", err)
	}
	if svcSec <= 0 {
		svcSec = 0.01
	}
	// Surge demands ~60% of the autoscaled pool's max capacity (clamped to
	// 80 arrivals/sec so tiny service times don't explode the job count);
	// base is the surge divided back by the factor, so a 1-slot pool idles
	// through warm and drowns in surge.
	surgeRate := 0.6 * float64(opts.MaxSlots) / svcSec
	if surgeRate > 80 {
		surgeRate = 80
	}
	baseRate := surgeRate / opts.SurgeFactor
	sloTarget := 20 * svcSec
	if sloTarget < 1 {
		sloTarget = 1
	}
	phases := []olPhaseSpec{
		{"warm", baseRate, time.Duration(opts.WarmSec * float64(time.Second))},
		{"surge", surgeRate, time.Duration(opts.SurgeSec * float64(time.Second))},
		{"cool", baseRate, time.Duration(opts.CoolSec * float64(time.Second))},
	}

	asCfg := &autoscale.Config{
		Min:                1,
		Max:                opts.MaxSlots,
		TargetQueueWaitSec: maxf(0.15, 5*svcSec),
		Interval:           100 * time.Millisecond,
		ScaleUpCooldown:    100 * time.Millisecond,
		ScaleDownCooldown:  3 * time.Second,
		DownStableTicks:    5,
	}
	auto, err := runOpenLoop(ctx, opts, "autoscaled", asCfg, phases, sloTarget)
	if err != nil {
		return nil, fmt.Errorf("autoscaled run: %w", err)
	}
	fixed, err := runOpenLoop(ctx, opts, "fixed", nil, phases, sloTarget)
	if err != nil {
		return nil, fmt.Errorf("fixed run: %w", err)
	}

	rep := &OpenLoopReport{Autoscaled: *auto, Fixed: *fixed}
	rep.Config.Workers = opts.Workers
	rep.Config.BlockSize = opts.BlockSize
	rep.Config.Seed = opts.Seed
	rep.Config.SurgeFactor = opts.SurgeFactor
	rep.Config.MaxSlots = opts.MaxSlots
	rep.Config.ServiceSecEst = svcSec
	rep.Config.BaseRatePerSec = baseRate
	rep.Config.SurgeRatePerSec = surgeRate
	rep.Config.SLOTargetSec = sloTarget
	rep.AutoHeldSLO = auto.SLOHeld
	rep.FixedViolatedSLO = !fixed.SLOHeld
	return rep, nil
}

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p * float64(len(s)-1))
	return s[i]
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// OpenLoop runs the ramp, prints the comparison tables, and optionally writes
// the JSON report.
func OpenLoop(w io.Writer, opts OpenLoopOptions, jsonPath string, writeFile func(string, []byte) error) error {
	rep, err := RunOpenLoop(opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# serve open-loop ramp: base %.1f/s, surge %.1f/s (x%.0f), service ~%.0fms, SLO p99 <= %.2fs\n",
		rep.Config.BaseRatePerSec, rep.Config.SurgeRatePerSec, rep.Config.SurgeFactor,
		1000*rep.Config.ServiceSecEst, rep.Config.SLOTargetSec)
	for _, run := range []OpenLoopRun{rep.Autoscaled, rep.Fixed} {
		fmt.Fprintf(w, "\n## %s (slots %d -> peak %d -> final %d)\n", run.Mode, run.StartSlots, run.PeakSlots, run.FinalSlots)
		var rows [][]string
		for _, ph := range run.Phases {
			rows = append(rows, []string{
				ph.Name,
				fmt.Sprintf("%.1f/s", ph.RatePerSec),
				fmt.Sprintf("%d (%d failed)", ph.Jobs, ph.Failed),
				fmt.Sprintf("%d", ph.Rejections),
				fmt.Sprintf("%.4f / %.4f / %.4f s", ph.LatencyP50Sec, ph.LatencyP95Sec, ph.LatencyP99Sec),
				fmt.Sprintf("%d", ph.PeakSlots),
			})
		}
		writeTable(w, []string{"phase", "rate", "jobs", "rejections", "latency p50/p95/p99", "peak slots"}, rows)
		if len(run.Decisions) > 0 {
			fmt.Fprintf(w, "decisions (%d up, %d down):\n", run.Ups, run.Downs)
			for _, d := range run.Decisions {
				fmt.Fprintf(w, "  t=%6.2fs %-4s %d -> %d (%s)\n", d.TSec, d.Direction, d.From, d.To, d.Reason)
			}
		}
	}
	fmt.Fprintf(w, "\nauto held SLO: %v; fixed violated SLO: %v (surge p99 %.3fs vs %.3fs, target %.2fs)\n",
		rep.AutoHeldSLO, rep.FixedViolatedSLO, rep.Autoscaled.SurgeP99Sec, rep.Fixed.SurgeP99Sec, rep.Config.SLOTargetSec)
	if jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := writeFile(jsonPath, append(data, '\n')); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", jsonPath)
	}
	return nil
}
