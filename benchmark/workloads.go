package main

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// refSeconds is the run length the op counts below are sized for on the
// reference host; -seconds scales them, so a run is a fixed amount of work
// and wall_s is a time to solution.
const refSeconds = 12

// workloadDef is one workload: an iteration program run op after op on one
// engine, or (jobs set) a closed-loop job mix against the job service.
type workloadDef struct {
	Name string
	Why  string
	// gen builds the iteration program and its inputs from the seed; bs 0
	// asks for the workload's own block size (the kernel rung overrides it).
	gen func(seed int64, smoke bool, bs int) *App
	// warm and ops are the warm-up and timed op counts (per client) at
	// refSeconds; smoke runs use 1 and smokeOps.
	warm, ops int
	wire      bool // loopback TCP data plane
	ckpt      bool // checkpoint every 2nd stage
	// jobs is the served mix (serve_mix only); clients the closed-loop
	// client count, one tenant each.
	jobs    func(smoke bool) (bs int, mix []Job)
	clients int
}

const smokeOps = 4

var workloads = []*workloadDef{
	{
		Name: "gnmf",
		Why:  "paper Code 1 on Netflix/10, k=64, in-process: sparse x dense and thin dense multiplies under sched; the paper's headline",
		gen: func(seed int64, smoke bool, bs int) *App {
			if smoke {
				return genGNMF(seed, 400, 8, bs)
			}
			return genGNMF(seed, 10, 64, bs)
		},
		warm: 2, ops: 50,
	},
	{
		Name: "dense_mm",
		Why:  "S = A %*% B, dense 1536^2, block 512: packed GEMM and nothing else, so a GEMM gain shows here alone",
		gen: func(seed int64, smoke bool, bs int) *App {
			if smoke {
				return genDenseMM(seed, 96, cmp.Or(bs, 32))
			}
			return genDenseMM(seed, 1536, cmp.Or(bs, 512))
		},
		warm: 2, ops: 50,
	},
	{
		Name: "pagerank_wire",
		Why:  "paper Code 2 on a 60000-node power-law graph over loopback TCP to 4 workers: framing, block encoding, CRC and sockets",
		gen: func(seed int64, smoke bool, bs int) *App {
			if smoke {
				return genPageRank(seed, 600, 4, bs)
			}
			return genPageRank(seed, 60000, 8, bs)
		},
		warm: 5, ops: 1300, wire: true,
	},
	{
		Name: "gnmf_ckpt",
		Why:  "gnmf at Netflix/40, k=32, checkpointing every 2nd stage: durability writes beside the same compute",
		gen: func(seed int64, smoke bool, bs int) *App {
			if smoke {
				return genGNMF(seed, 400, 8, bs)
			}
			return genGNMF(seed, 40, 32, bs)
		},
		warm: 2, ops: 200, ckpt: true,
	},
	{
		Name: "serve_mix",
		Why:  "2 closed-loop tenants submit small pagerank/gram/blend jobs, half with repeated seeds: admission, build, rewrite, plan, caches and dispatch",
		jobs: func(smoke bool) (int, []Job) {
			if smoke {
				return 8, []Job{
					{Workload: "pagerank", Params: map[string]float64{"nodes": 64, "iters": 2, "degree": 3}},
					{Workload: "gram", Params: map[string]float64{"rows": 32, "cols": 16, "sparsity": 0.2}},
					{Workload: "blend", Params: map[string]float64{"n": 32, "k": 4, "iters": 1}},
				}
			}
			return 32, []Job{
				{Workload: "pagerank", Params: map[string]float64{"nodes": 1024, "iters": 5, "degree": 8}},
				{Workload: "gram", Params: map[string]float64{"rows": 512, "cols": 128, "sparsity": 0.05}},
				{Workload: "blend", Params: map[string]float64{"n": 256, "k": 32, "iters": 2}},
			}
		},
		warm: 50, ops: 2000, clients: 2,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// runConfig is what one workload process is asked to do.
type runConfig struct {
	Workload  string
	Seed      int64
	Seconds   int
	Trace     bool
	Smoke     bool
	SetupOnly bool   // stop after set-up: a setup_s sample
	WorkDir   string // scratch space for checkpoints
	TraceOut  string // Chrome-trace file of the traced run
}

// counts returns the warm-up and timed op counts (per client) of a run.
func (c runConfig) counts(w *workloadDef) (warm, ops int) {
	if c.Smoke {
		return 1, smokeOps
	}
	return w.warm, max(1, (w.ops*c.Seconds+refSeconds/2)/refSeconds)
}

// Result is what one workload process measured. Values holds end-to-end and
// per-layer metrics by name, unfiltered; the parent narrows them into a Run.
type Result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	WarmOps   int                `json:"warm_ops"`
	Clients   int                `json:"clients"`
	Values    map[string]float64 `json:"values,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
}

// fail counts one failed op (or oracle check) and keeps the first few
// reasons.
func (r *Result) fail(format string, args ...any) {
	r.Failed++
	r.Correct = false
	if len(r.Notes) < 8 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

// run is the body of a workload process.
func run(cfg runConfig) (*Result, error) {
	w := findWorkload(cfg.Workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	var tr *Tracer
	if cfg.Trace {
		tr = newTracer()
	}
	res := &Result{
		Workload: w.Name, Seed: cfg.Seed, Trace: cfg.Trace, Correct: true,
		Clients: max(1, w.clients), Values: map[string]float64{},
	}
	root := tr.Start("bench", w.Name, 0)
	var err error
	if w.jobs != nil {
		err = runServe(w, cfg, tr, root, res)
	} else {
		err = runApp(w, cfg, tr, root, res)
	}
	if err != nil {
		return nil, err
	}
	if cfg.Trace && !cfg.SetupOnly {
		sp := tr.Start("bench", "ladder", root)
		err = ladder(w, cfg, tr, sp, res)
		tr.End(sp)
		if err != nil {
			return nil, err
		}
	}
	tr.End(root)
	res.Values["bench.ops"] = float64(res.Attempted)
	res.Values["bench.ops_failed"] = float64(res.Failed)
	if cfg.Trace && cfg.TraceOut != "" {
		if err := writeChromeTrace(cfg.TraceOut, tr); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// segments is how many parts a timed phase is cut into. wall_s and cpu_s are
// the op count times the median segment's time per op, so a burst on the
// shared host that hits fewer than half the segments does not move them;
// bench.wall_sum_s is the plain sum.
const segments = 10

// segment returns the bounds of part s of ops cut into k nearly equal parts.
func segment(s, k, ops int) (lo, hi int) { return s * ops / k, (s + 1) * ops / k }

// meter measures a timed phase segment by segment: wall and CPU time with
// pauses taken out, the heap traffic of the Go runtime, and the highest
// resident set size.
type meter struct {
	mem0 runtime.MemStats

	// The open segment.
	start     time.Time
	cpu0      float64
	pauseWall time.Duration
	pauseCPU  float64

	// The resident set is sampled, not read from VmHWM: the high-water mark
	// of the whole process is set by the garbage of input generation, which
	// is the benchmark's own and moved pagerank_wire's reading by 20 %
	// between identical runs.
	stopRSS chan struct{}
	peakRSS chan float64

	wallPerOp, cpuPerOp []float64 // one entry per closed segment
	wallSum             float64
	rss                 float64
	mem1                runtime.MemStats
}

// rssSampleEvery is the period of the resident-set sampler.
const rssSampleEvery = 10 * time.Millisecond

// settle ends set-up: it collects the garbage of generation and warm-up and
// returns it to the system, so the timed phase starts from the live set.
func settle() {
	debug.FreeOSMemory()
}

func startMeter() *meter {
	m := &meter{stopRSS: make(chan struct{}), peakRSS: make(chan float64)}
	go func() {
		tick := time.NewTicker(rssSampleEvery)
		defer tick.Stop()
		peak := residentBytes()
		for {
			select {
			case <-tick.C:
				peak = max(peak, residentBytes())
			case <-m.stopRSS:
				m.peakRSS <- max(peak, residentBytes())
				return
			}
		}
	}()
	runtime.ReadMemStats(&m.mem0)
	return m
}

// begin opens a segment.
func (m *meter) begin() {
	m.pauseWall, m.pauseCPU = 0, 0
	m.cpu0 = cpuSeconds()
	m.start = time.Now()
}

// pause runs fn outside the timed region of the open segment.
func (m *meter) pause(fn func()) {
	t, c := time.Now(), cpuSeconds()
	fn()
	m.pauseWall += time.Since(t)
	m.pauseCPU += cpuSeconds() - c
}

// end closes the segment, in which ops ops (per client) ran.
func (m *meter) end(ops int) {
	wall := (time.Since(m.start) - m.pauseWall).Seconds()
	cpu := cpuSeconds() - m.cpu0 - m.pauseCPU
	m.wallSum += wall
	m.wallPerOp = append(m.wallPerOp, wall/float64(ops))
	m.cpuPerOp = append(m.cpuPerOp, cpu/float64(ops))
}

// stop ends the phase.
func (m *meter) stop() {
	close(m.stopRSS)
	m.rss = <-m.peakRSS
	runtime.ReadMemStats(&m.mem1)
}

// report records what every workload reports about a stopped phase of ops
// ops per client, whose latencies are lat.
func (m *meter) report(vals map[string]float64, ops int, lat []float64) {
	n := float64(len(lat))
	vals["wall_s"] = float64(ops) * median(m.wallPerOp)
	vals["cpu_s"] = float64(ops) * median(m.cpuPerOp)
	vals["peak_rss_bytes"] = m.rss
	vals["op_p50_s"] = median(lat)
	vals["bench.wall_sum_s"] = m.wallSum
	vals["runtime.alloc_bytes_per_op"] = ratio(float64(m.mem1.TotalAlloc-m.mem0.TotalAlloc), n)
	vals["runtime.mallocs_per_op"] = ratio(float64(m.mem1.Mallocs-m.mem0.Mallocs), n)
	vals["runtime.gc_cycles"] = float64(m.mem1.NumGC - m.mem0.NumGC)
	vals["runtime.gc_pause_s"] = float64(m.mem1.PauseTotalNs-m.mem0.PauseTotalNs) / 1e9
	vals["bench.op_tail_pct"], vals["bench.op_tail_s"] = tail(lat)
	q1, q3 := quartiles(lat)
	vals["bench.op_iqr_s"] = q3 - q1
}

// ckptDirs hands out checkpoint directories under a base that the run
// removes when it ends. The engine never prunes snapshots, so after every op
// the run moves the engine to a fresh directory and deletes the old one,
// outside the clock. Keeping a single op's snapshots (31 MB) rather than
// many is also what keeps gnmf_ckpt steady: cycling the page cache through
// 500 MB made consecutive runs on the reference host 20 % slower and three
// times as noisy.
type ckptDirs struct {
	base string
	n    int
	cur  string
}

func newCkptDirs(workDir string) *ckptDirs {
	return &ckptDirs{base: filepath.Join(workDir, fmt.Sprintf("ckpt-%d", os.Getpid()))}
}

func (c *ckptDirs) next() string {
	c.n++
	c.cur = filepath.Join(c.base, fmt.Sprint(c.n))
	return c.cur
}

// rotate points the engine at a fresh directory and deletes the previous
// one.
func (c *ckptDirs) rotate(eng *Eng) error {
	old := c.cur
	if err := eng.SetCkptDir(c.next()); err != nil {
		return err
	}
	return os.RemoveAll(old)
}

// runApp sets up, times and checks an iteration-program workload.
func runApp(w *workloadDef, cfg runConfig, tr *Tracer, root SpanID, res *Result) error {
	vals := res.Values
	warm, ops := cfg.counts(w)
	res.WarmOps = warm

	sp := tr.Start("bench", "generate", root)
	t := time.Now()
	app := w.gen(cfg.Seed, cfg.Smoke, 0)
	vals["workload.generate_s"] = time.Since(t).Seconds()
	tr.End(sp)

	spec := EngineSpec{BlockSize: app.BlockSize, Wire: w.wire}
	dirs := newCkptDirs(cfg.WorkDir)
	if w.ckpt {
		spec.CkptDir = dirs.next()
		defer os.RemoveAll(dirs.base)
	}
	// comm_bytes counts the whole session, warm-up included: the first op's
	// initial partition is part of what a plan moves, and dense_mm moves
	// nothing after it.
	var warmComm int64
	sp = tr.Start("bench", "bind", root)
	eng, err := newEng(spec)
	if err != nil {
		return err
	}
	defer eng.Close()
	if err := eng.Bind(app.Inputs); err != nil {
		return err
	}
	tr.End(sp)

	for i := 0; i < warm; i++ {
		name := "warmup"
		if i == 0 {
			name = "first_run"
		}
		sp = tr.Start("bench", name, root)
		t = time.Now()
		st, err := eng.Run(app)
		if err != nil {
			return fmt.Errorf("warm-up op %d: %w", i, err)
		}
		warmComm += st.CommBytes
		if i == 0 {
			vals["engine.first_run_s"] = time.Since(t).Seconds()
		}
		tr.End(sp)
	}
	settle()
	vals["setup_s"] = time.Since(processStart).Seconds()
	if cfg.SetupOnly {
		return nil
	}

	timed := tr.Start("bench", "timed", root)
	hits0, miss0 := eng.PlanCache()
	lat := make([]float64, 0, ops)
	var total OpStats
	m := startMeter()
	k := min(segments, ops)
	for s := 0; s < k; s++ {
		lo, hi := segment(s, k, ops)
		m.begin()
		for i := lo; i < hi; i++ {
			if w.ckpt && i > 0 {
				m.pause(func() {
					if err := dirs.rotate(eng); err != nil {
						res.fail("rotate checkpoint dir: %v", err)
					}
				})
			}
			sp = tr.Start("bench", "op", timed)
			t = time.Now()
			st, err := eng.Run(app)
			lat = append(lat, time.Since(t).Seconds())
			tr.End(sp)
			res.Attempted++
			if err != nil {
				res.fail("op %d: %v", i, err)
				continue
			}
			total.add(st)
		}
		m.end(hi - lo)
	}
	m.stop()
	tr.End(timed)
	m.report(vals, ops, lat)

	hits, miss := eng.PlanCache()
	vals["engine.plan_cache_hit_share"] = ratio(float64(hits-hits0), float64(hits-hits0+miss-miss0))
	vals["comm_bytes"] = float64(warmComm + total.CommBytes)
	vals["transport.wire_bytes"] = float64(total.WireBytes)
	vals["transport.wire_frames"] = float64(total.WireFrames)
	vals["transport.wire_over_comm"] = ratio(float64(total.WireBytes), float64(total.CommBytes))
	vals["engine.ckpt_s_per_op"] = ratio(total.CkptS, float64(ops))
	vals["engine.ckpt_bytes_per_op"] = ratio(float64(total.CkptBytes), float64(ops))
	vals["engine.ckpt_mbps"] = ratio(float64(total.CkptBytes)/1e6, total.CkptS)

	sp = tr.Start("bench", "oracle", root)
	defer tr.End(sp)
	return oracleApp(w, cfg, app, eng, dirs, res)
}

// oracleApp checks an iteration-program workload after its timed phase: the
// timed engine's final outputs are finite (and a rank vector still sums to
// 1), a fresh engine of the same build agrees with a reference engine after
// two ops, and the last checkpoint reads back.
func oracleApp(w *workloadDef, cfg runConfig, app *App, eng *Eng, dirs *ckptDirs, res *Result) error {
	for _, name := range app.Outputs {
		g, ok := eng.Grid(name)
		if !ok || !gridFinite(g) {
			res.fail("oracle: output %s of the timed engine is missing or not finite", name)
		} else if name == "rank" && math.Abs(gridSum(g)-1) > 1e-9 {
			res.fail("oracle: rank sums to %.17g", gridSum(g))
		}
	}
	if w.ckpt {
		if n, err := readLastSnapshot(dirs.cur); err != nil || n == 0 {
			res.fail("oracle: last snapshot: %d grids, %v", n, err)
		}
	}
	// The reference: for the wire workload the in-process engine, bit for
	// bit; otherwise the Local planner, to 1e-9.
	subject := EngineSpec{BlockSize: app.BlockSize, Wire: w.wire}
	ref, tol := EngineSpec{BlockSize: app.BlockSize, Local: true}, 1e-9
	if w.wire {
		ref, tol = EngineSpec{BlockSize: app.BlockSize}, 0
	}
	if w.ckpt {
		subject.CkptDir = dirs.next()
	}
	outs := make([]map[string]Grid, 2)
	for i, spec := range []EngineSpec{subject, ref} {
		e, err := newEng(spec)
		if err != nil {
			return err
		}
		if err := e.Bind(app.Inputs); err != nil {
			e.Close()
			return err
		}
		outs[i] = map[string]Grid{}
		for op := 0; op < 2; op++ {
			if _, err := e.Run(app); err != nil {
				res.fail("oracle: op %d: %v", op, err)
			}
		}
		for _, name := range app.Outputs {
			outs[i][name], _ = e.Grid(name)
		}
		if err := e.Close(); err != nil {
			return err
		}
	}
	for _, name := range app.Outputs {
		a, b := outs[0][name], outs[1][name]
		if a == nil || b == nil || !gridsEqual(a, b, tol) {
			res.fail("oracle: %s differs from the reference engine after 2 ops", name)
		}
	}
	return nil
}

// hotSeeds are the job seeds half the served jobs repeat, so the job cache
// and the plan cache hit.
const hotSeeds = 4

// sample is one finished job as its client saw it.
type sample struct {
	job                         Job
	hot                         bool
	lat, submit, queue, running float64
	comm, wire                  int64
	digest                      map[string]float64
	err                         error
}

// jobSequence draws a client's jobs from the seed: kinds uniform over the
// mix, half the seeds from the hot set, half never repeated.
func jobSequence(seed int64, client, n int, mix []Job) []sample {
	rng := rand.New(rand.NewSource(seed*1000 + int64(client)))
	seq := make([]sample, n)
	for i := range seq {
		j := mix[rng.Intn(len(mix))]
		hot := rng.Intn(2) == 0
		jobSeed := float64(1 + rng.Intn(hotSeeds))
		if !hot {
			jobSeed = float64(1000 + client*1_000_000 + i)
		}
		params := map[string]float64{"seed": jobSeed}
		for k, v := range j.Params {
			params[k] = v
		}
		seq[i] = sample{hot: hot, job: Job{Tenant: fmt.Sprintf("tenant-%d", client), Workload: j.Workload, Params: params}}
	}
	return seq
}

// runServe sets up, times and checks the closed-loop job mix, one segment
// at a time. serve.Service keeps every finished job with its inputs and
// outputs (0.6 MB a job), and fresh pages are what this host is slowest and
// least steady at (11 us a fault, so 2.4 GB cost 7 s of system time that
// moved by a third between runs). So every segment gets a service of its
// own, started and warmed outside the clock, and the heap the previous one
// leaves is collected but kept mapped, which holds the resident set at one
// segment's jobs.
func runServe(w *workloadDef, cfg runConfig, tr *Tracer, root SpanID, res *Result) error {
	vals := res.Values
	warm, ops := cfg.counts(w)
	res.WarmOps = warm
	bs, mix := w.jobs(cfg.Smoke)
	k := min(segments, ops)
	if cfg.SetupOnly {
		k, ops = 1, 0
	}

	sp := tr.Start("bench", "generate", root)
	t := time.Now()
	seqs := make([][]sample, w.clients)
	for c := range seqs {
		seqs[c] = jobSequence(cfg.Seed, c, k*warm+ops, mix)
	}
	vals["workload.generate_s"] = time.Since(t).Seconds()
	tr.End(sp)

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	var m *meter
	var stats SvcStats
	var comm int64
	timedJobs := make([][]sample, w.clients)
	timed := SpanID(0)
	for s := 0; s < k; s++ {
		lo, hi := segment(s, k, ops)
		sp = tr.Start("bench", "bind", root)
		svc, err := newSvc(bs, 2)
		if err != nil {
			return err
		}
		tr.End(sp)

		// Each client warms up, waits for the others, then runs the segment.
		var warmed, done sync.WaitGroup
		release := make(chan struct{})
		warmed.Add(w.clients)
		done.Add(w.clients)
		warmSpan := tr.Start("bench", "warmup", root)
		parts := make([][]sample, w.clients)
		for c := range parts {
			parts[c] = seqs[c][s*warm+lo : (s+1)*warm+hi]
			go func(seq []sample) {
				defer done.Done()
				do := func(s *sample, parent SpanID) {
					sp := tr.Start("bench", "op", parent)
					t := time.Now()
					d, err := svc.Do(ctx, s.job)
					s.lat = time.Since(t).Seconds()
					tr.End(sp)
					s.submit, s.queue, s.running, s.err = d.SubmitS, d.QueueS, d.RunS, err
					s.comm, s.wire, s.digest = d.CommBytes, d.WireBytes, d.Digest
				}
				for i := range seq[:warm] {
					do(&seq[i], warmSpan)
				}
				warmed.Done()
				<-release
				for i := range seq[warm:] {
					do(&seq[warm+i], timed)
				}
			}(parts[c])
		}
		warmed.Wait()
		tr.End(warmSpan)
		if s == 0 {
			vals["engine.first_run_s"] = seqs[0][0].lat
			settle()
			vals["setup_s"] = time.Since(processStart).Seconds()
			if !cfg.SetupOnly {
				timed = tr.Start("bench", "timed", root)
				m = startMeter()
			}
		}
		st0 := svc.Stats()
		if m != nil {
			runtime.GC()
			m.begin()
		}
		close(release)
		done.Wait()
		if m != nil {
			m.end(hi - lo)
		}
		st := svc.Stats()
		stats.Rejected += st.Rejected - st0.Rejected
		stats.JobHits += st.JobHits - st0.JobHits
		stats.JobMisses += st.JobMisses - st0.JobMisses
		stats.PlanHits += st.PlanHits - st0.PlanHits
		stats.PlanMisses += st.PlanMisses - st0.PlanMisses
		for c, part := range parts {
			for _, s := range part[:warm] {
				comm += s.comm // comm_bytes counts the whole session
			}
			timedJobs[c] = append(timedJobs[c], part[warm:]...)
		}
		if err := svc.Stop(); err != nil {
			return err
		}
	}
	if cfg.SetupOnly {
		return nil
	}
	m.stop()
	tr.End(timed)

	var lat, hotLat, freshLat, submit, queue, running, overhead []float64
	var wire int64
	for _, jobs := range timedJobs {
		for _, s := range jobs {
			res.Attempted++
			lat = append(lat, s.lat)
			if s.err != nil {
				res.fail("job %s %v: %v", s.job.Workload, s.job.Params, s.err)
				continue
			}
			if s.hot {
				hotLat = append(hotLat, s.lat)
			} else {
				freshLat = append(freshLat, s.lat)
			}
			submit = append(submit, s.submit)
			queue = append(queue, s.queue)
			running = append(running, s.running)
			overhead = append(overhead, math.Max(0, s.lat-s.queue-s.running))
			comm += s.comm
			wire += s.wire
		}
	}
	m.report(vals, ops, lat)

	vals["comm_bytes"] = float64(comm)
	vals["transport.wire_bytes"] = float64(wire)
	vals["transport.wire_over_comm"] = ratio(float64(wire), float64(comm))
	vals["serve.submit_s"] = median(submit)
	vals["serve.queue_wait_p50_s"] = median(queue)
	vals["serve.run_p50_s"] = median(running)
	vals["serve.overhead_p50_s"] = median(overhead)
	vals["serve.hot_op_p50_s"] = median(hotLat)
	vals["serve.fresh_op_p50_s"] = median(freshLat)
	vals["serve.jobs_per_s"] = ratio(float64(len(lat)), vals["wall_s"])
	vals["serve.rejected"] = float64(stats.Rejected)
	vals["serve.job_cache_hit_share"] = ratio(float64(stats.JobHits), float64(stats.JobHits+stats.JobMisses))
	planShare := ratio(float64(stats.PlanHits), float64(stats.PlanHits+stats.PlanMisses))
	vals["serve.plan_cache_hit_share"] = planShare
	vals["engine.plan_cache_hit_share"] = planShare

	sp = tr.Start("bench", "oracle", root)
	defer tr.End(sp)
	return oracleServe(cfg, bs, timedJobs, res)
}

// oracleServe replays every 100th timed job (every 4th of a smoke run) on a
// bare engine built like a service slot and compares scalars and output
// sums.
func oracleServe(cfg runConfig, bs int, jobs [][]sample, res *Result) error {
	every := 100
	if cfg.Smoke {
		every = 4
	}
	eng, err := newEng(EngineSpec{BlockSize: bs})
	if err != nil {
		return err
	}
	defer eng.Close()
	for _, seq := range jobs {
		for i := 0; i < len(seq); i += every {
			s := seq[i]
			if s.err != nil {
				continue
			}
			app, err := buildJob(s.job.Workload, bs, s.job.Params)
			if err != nil {
				return err
			}
			if _, err := eng.RunFresh(app); err != nil {
				res.fail("oracle: %s %v: %v", s.job.Workload, s.job.Params, err)
				continue
			}
			want := eng.Digest(app)
			if len(want) == 0 || len(want) != len(s.digest) {
				res.fail("oracle: %s returned %d values, the bare engine %d", s.job.Workload, len(s.digest), len(want))
			}
			for k, v := range want {
				if got, ok := s.digest[k]; !ok || math.Abs(got-v) > 1e-9*math.Max(1, math.Abs(v)) {
					res.fail("oracle: %s %s = %.17g, the bare engine says %.17g", s.job.Workload, k, got, v)
				}
			}
		}
	}
	return nil
}
