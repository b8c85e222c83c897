package main

// adapter.go is the only file of the benchmark that calls dmac/internal/...:
// the workloads, the ladder and the probes are written against the few types
// below, so a refactor of the engine, kernel or service API is absorbed here.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dmac/internal/apps"
	"dmac/internal/dist"
	"dmac/internal/dist/transport"
	"dmac/internal/engine"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/mio"
	"dmac/internal/obs"
	"dmac/internal/rewrite"
	"dmac/internal/sched"
	"dmac/internal/serve"
	"dmac/internal/workload"
)

// The cluster every workload runs on: the paper's 4 nodes x 8 threads, as in
// internal/bench.
const (
	clusterWorkers = 4
	clusterThreads = 8
)

type (
	// Grid and Program are opaque outside this file.
	Grid    = *matrix.Grid
	Program = *expr.Program
	// Tracer records the benchmark's own spans; a nil *Tracer records nothing.
	Tracer = obs.Tracer
	SpanID = obs.SpanID
)

func newTracer() *Tracer { return obs.NewTracer() }

func writeChromeTrace(path string, t *Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, t.Spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// App is one iteration program with its generated inputs.
type App struct {
	// Name is the registry name of a served job, empty for the paper's
	// applications.
	Name      string
	Inputs    map[string]Grid
	Prog      Program
	Outputs   []string
	BlockSize int
	// Iterations is how many runs of Prog make one op (1 for the paper
	// applications, the job's iteration count for registry jobs).
	Iterations int
	Params     map[string]float64
	Scalars    []string
}

// maxDim is the block size at which every matrix of the app is one block.
func (a *App) maxDim() int {
	m := 1
	for _, g := range a.Inputs {
		m = max(m, g.Rows(), g.Cols())
	}
	return m
}

func chooseBlock(bs, rows, cols int) int {
	if bs > 0 {
		return bs
	}
	return sched.ChooseBlockSize(rows, cols, clusterThreads, clusterWorkers)
}

func sparsity(g Grid) float64 {
	return float64(g.NNZ()) / (float64(g.Rows()) * float64(g.Cols()))
}

// ratings is workload.Ratings (uniform positions, integer ratings 1..5) with
// one difference: every row and every column holds at least one rating. A
// column of V without one drives its column of H to 0 in the first GNMF
// iteration and to 0/0 in the second, and at 1/40 scale one column in
// eighty is empty.
func ratings(seed int64, rows, cols, bs int, sparsity float64) Grid {
	rng := rand.New(rand.NewSource(seed))
	target := int(sparsity * float64(rows) * float64(cols))
	coords := make([]matrix.Coord, 0, target+rows+cols)
	seen := make(map[int64]bool, target+rows+cols)
	add := func(i, j int) {
		if key := int64(i)*int64(cols) + int64(j); !seen[key] {
			seen[key] = true
			coords = append(coords, matrix.Coord{Row: i, Col: j, Val: float64(1 + rng.Intn(5))})
		}
	}
	for j := 0; j < cols; j++ {
		add(rng.Intn(rows), j)
	}
	for i := 0; i < rows; i++ {
		add(i, rng.Intn(cols))
	}
	for len(coords) < target {
		add(rng.Intn(rows), rng.Intn(cols))
	}
	return matrix.FromCoords(rows, cols, bs, coords)
}

// genGNMF is paper Code 1 on a Netflix-shaped ratings matrix at 1/denom
// scale. bs 0 picks the block size with sched.ChooseBlockSize.
func genGNMF(seed int64, denom, k, bs int) *App {
	rows, cols := max(workload.Netflix.Movies/denom, 32), max(workload.Netflix.Users/denom, 32)
	bs = chooseBlock(bs, rows, cols)
	v := ratings(seed, rows, cols, bs, workload.Netflix.Sparsity)
	return &App{
		Inputs: map[string]Grid{
			"V": v,
			"W": workload.DenseRandom(seed+1, rows, k, bs),
			"H": workload.DenseRandom(seed+2, k, cols, bs),
		},
		Prog:       apps.GNMFIteration(rows, cols, k, sparsity(v)),
		Outputs:    []string{"W", "H"},
		BlockSize:  bs,
		Iterations: 1,
	}
}

// genDenseMM is S = A %*% B over dense n x n factors.
func genDenseMM(seed int64, n, bs int) *App {
	bs = chooseBlock(bs, n, n)
	p := expr.NewProgram()
	p.Assign("S", p.Mul(p.Var("A", n, n, 1), p.Var("B", n, n, 1)))
	return &App{
		Inputs: map[string]Grid{
			"A": workload.DenseRandom(seed, n, n, bs),
			"B": workload.DenseRandom(seed+1, n, n, bs),
		},
		Prog:       p,
		Outputs:    []string{"S"},
		BlockSize:  bs,
		Iterations: 1,
	}
}

// genPageRank is paper Code 2 on a seeded power-law graph.
func genPageRank(seed int64, nodes int, degree float64, bs int) *App {
	bs = chooseBlock(bs, nodes, nodes)
	link := workload.RowNormalize(workload.PowerLawGraph(seed, nodes, degree, bs))
	rank := workload.DenseRandom(seed+1, 1, nodes, bs)
	rank = matrix.ScalarGrid(matrix.ScalarMul, rank, 1/matrix.SumGrid(rank))
	d := make([]float64, nodes)
	for i := range d {
		d[i] = 1 / float64(nodes)
	}
	return &App{
		Inputs:     map[string]Grid{"link": link, "rank": rank, "D": matrix.FromDense(1, nodes, bs, d)},
		Prog:       apps.PageRankIteration(nodes, sparsity(link)),
		Outputs:    []string{"rank"},
		BlockSize:  bs,
		Iterations: 1,
	}
}

// buildJob materializes a registry job the way the service does.
func buildJob(name string, bs int, params map[string]float64) (*App, error) {
	b, err := workload.DefaultRegistry().Build(name, bs, workload.Params(params))
	if err != nil {
		return nil, err
	}
	return &App{
		Name: name, Inputs: b.Inputs, Prog: b.Program, Outputs: b.Outputs, BlockSize: bs,
		Iterations: b.Iterations, Params: params, Scalars: b.Scalars,
	}, nil
}

func gridSum(g Grid) float64 { return matrix.SumGrid(g) }

func gridsEqual(a, b Grid, tol float64) bool { return matrix.GridEqual(a, b, tol) }

// gridFinite reports whether every cell of g is a finite number.
func gridFinite(g Grid) bool {
	s := matrix.FrobeniusSqGrid(g)
	return !math.IsNaN(s) && !math.IsInf(s, 0)
}

// OpStats is what one engine run reports about itself.
type OpStats struct {
	CommBytes             int64
	ModelS                float64
	CommEvents            int
	Shuffles, Broadcasts  int
	Flops                 float64
	WireBytes, WireFrames int64
	CkptBytes             int64
	CkptS                 float64
	StageWallS            float64
	ModelComputeS         float64
	ModelNetworkS         float64
}

func (s *OpStats) add(o OpStats) {
	s.CommBytes += o.CommBytes
	s.ModelS += o.ModelS
	s.CommEvents += o.CommEvents
	s.Shuffles += o.Shuffles
	s.Broadcasts += o.Broadcasts
	s.Flops += o.Flops
	s.WireBytes += o.WireBytes
	s.WireFrames += o.WireFrames
	s.CkptBytes += o.CkptBytes
	s.CkptS += o.CkptS
	s.StageWallS += o.StageWallS
	s.ModelComputeS += o.ModelComputeS
	s.ModelNetworkS += o.ModelNetworkS
}

// EngineSpec names the layers an engine is built with; each ladder rung adds
// one.
type EngineSpec struct {
	Local     bool // planner Local (the single-machine baseline), else DMac
	BlockSize int
	Wire      bool   // loopback TCP to clusterWorkers in-process workers
	CkptDir   string // checkpoint every 2nd stage into this directory
	Observe   bool   // attach the program's own tracer and registry
}

// Eng is an engine plus the workers and observers its spec asked for.
type Eng struct {
	e       *engine.Engine
	workers []*transport.Worker
	served  chan error
	tracer  *obs.Tracer
}

func newEng(spec EngineSpec) (*Eng, error) {
	cfg := dist.ScaledConfig(clusterWorkers, clusterThreads)
	planner := engine.DMac
	if spec.Local {
		planner = engine.Local
	}
	en := &Eng{}
	if spec.Wire {
		en.served = make(chan error, clusterWorkers) // one send per worker
		for i := 0; i < clusterWorkers; i++ {
			w := transport.NewWorker(transport.WorkerConfig{})
			addr, err := w.Listen("127.0.0.1:0")
			if err != nil {
				en.Close()
				return nil, fmt.Errorf("worker %d listen: %w", i, err)
			}
			en.workers = append(en.workers, w)
			cfg.WorkerAddrs = append(cfg.WorkerAddrs, addr.String())
			go func() { en.served <- w.Serve() }()
		}
	}
	en.e = engine.New(planner, cfg, spec.BlockSize)
	en.e.SetRewriter(rewrite.New())
	if spec.Observe {
		en.tracer = obs.NewTracer()
		en.e.SetObserver(en.tracer, obs.NewRegistry())
	}
	if spec.CkptDir != "" {
		if err := en.SetCkptDir(spec.CkptDir); err != nil {
			en.Close()
			return nil, err
		}
	}
	return en, nil
}

// SetCkptDir points the checkpointer at a fresh directory; the engine never
// prunes snapshots, so long runs rotate.
func (en *Eng) SetCkptDir(dir string) error {
	return en.e.SetCheckpoint(dir, engine.CheckpointPolicy{Interval: 2})
}

func (en *Eng) Bind(in map[string]Grid) error {
	for name, g := range in {
		if err := en.e.Bind(name, g); err != nil {
			return err
		}
	}
	return nil
}

// Run is one op of the app: Iterations runs of its program.
func (en *Eng) Run(a *App) (OpStats, error) {
	var st OpStats
	for i := 0; i < a.Iterations; i++ {
		m, err := en.e.Run(a.Prog, a.Params)
		if err != nil {
			return st, err
		}
		o := OpStats{
			CommBytes: m.CommBytes, ModelS: m.ModelSeconds, CommEvents: m.CommEvents,
			Shuffles: m.Shuffles, Broadcasts: m.Broadcasts, Flops: m.FLOPs,
			WireBytes: m.WireBytes, WireFrames: m.WireFrames,
			CkptBytes: m.CheckpointBytes, CkptS: m.CheckpointSeconds,
		}
		for _, s := range m.PerStage {
			o.StageWallS += s.WallSeconds
			o.ModelComputeS += s.ComputeSeconds
			o.ModelNetworkS += s.NetworkSeconds
		}
		st.add(o)
	}
	return st, nil
}

// RunFresh is one op on a cleared session: what a served job pays.
func (en *Eng) RunFresh(a *App) (OpStats, error) {
	en.e.Reset()
	if err := en.Bind(a.Inputs); err != nil {
		return OpStats{}, err
	}
	return en.Run(a)
}

func (en *Eng) Grid(name string) (Grid, bool) { return en.e.Grid(name) }

// Digest is what the oracle compares of a finished op: the driver scalars
// and the cell sum of every output.
func (en *Eng) Digest(a *App) map[string]float64 {
	d := map[string]float64{}
	for _, name := range a.Scalars {
		if v, ok := en.e.Scalar(name); ok {
			d[name] = v
		}
	}
	for _, name := range a.Outputs {
		if g, ok := en.e.Grid(name); ok {
			d["sum:"+name] = matrix.SumGrid(g)
		}
	}
	return d
}

func (en *Eng) PlanCache() (hits, misses int) { return en.e.PlanCacheStats() }

// PlanFresh binds the app into a cleared session and times Engine.Plan.
func (en *Eng) PlanFresh(a *App) (stages, ops int, sec float64, err error) {
	en.e.Reset()
	if err := en.Bind(a.Inputs); err != nil {
		return 0, 0, 0, err
	}
	t := time.Now()
	p, err := en.e.Plan(a.Prog)
	sec = time.Since(t).Seconds()
	if err != nil {
		return 0, 0, sec, err
	}
	return p.Stages, len(p.Ops), sec, nil
}

// Observed drains the attached tracer: spans recorded and block tasks
// scheduled since the last call.
func (en *Eng) Observed() (spans int, blockTasks int64) {
	for _, s := range en.tracer.Spans() {
		spans++
		if s.Cat == "sched" {
			if a, ok := s.Attr("tasks"); ok {
				blockTasks += a.Int
			}
		}
	}
	en.tracer.Reset()
	return spans, blockTasks
}

// Close releases the engine's connections and stops its workers, waiting
// for their accept loops to end.
func (en *Eng) Close() error {
	var err error
	if en.e != nil {
		err = en.e.Close()
	}
	for _, w := range en.workers {
		err = errors.Join(err, w.Close())
	}
	for range en.workers {
		<-en.served
	}
	en.workers = nil
	return err
}

// rewriteProbe times the rewrite pass on the app's program.
func rewriteProbe(a *App) (sec float64, decisions int, err error) {
	t := time.Now()
	res, err := rewrite.New().Rewrite(a.Prog)
	sec = time.Since(t).Seconds()
	if err != nil {
		return sec, 0, err
	}
	return sec, len(res.Decisions), nil
}

// mioProbe writes every input of the app through the checksummed grid
// format into memory and reads it back.
func mioProbe(a *App) (bytesMoved int64, writeS, readS float64, err error) {
	names := make([]string, 0, len(a.Inputs))
	for name := range a.Inputs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var buf bytes.Buffer
		t := time.Now()
		if err := mio.WriteGridChecked(&buf, a.Inputs[name]); err != nil {
			return 0, 0, 0, err
		}
		writeS += time.Since(t).Seconds()
		bytesMoved += int64(buf.Len())
		t = time.Now()
		g, err := mio.ReadGrid(&buf)
		if err != nil {
			return 0, 0, 0, err
		}
		readS += time.Since(t).Seconds()
		// Not GridEqual: it compares dense copies, 29 GB for the link matrix.
		if in := a.Inputs[name]; g.NNZ() != in.NNZ() || matrix.SumGrid(g) != matrix.SumGrid(in) {
			return 0, 0, 0, fmt.Errorf("mio: %s did not round-trip", name)
		}
	}
	return bytesMoved, writeS, readS, nil
}

// readLastSnapshot decodes every grid of the newest checkpoint under dir
// through the checksummed reader and returns how many it read.
func readLastSnapshot(dir string) (int, error) {
	snaps, err := filepath.Glob(filepath.Join(dir, "ckpt-*"))
	if err != nil || len(snaps) == 0 {
		return 0, fmt.Errorf("no snapshot under %s", dir)
	}
	sort.Strings(snaps)
	files, _ := filepath.Glob(filepath.Join(snaps[len(snaps)-1], "*.dmgr"))
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			return 0, err
		}
		if _, err := mio.ReadGrid(bytes.NewReader(blob)); err != nil {
			return 0, fmt.Errorf("%s: %w", f, err)
		}
	}
	return len(files), nil
}

// Svc is an in-process job service.
type Svc struct{ s *serve.Service }

// newSvc starts a service whose admission limits never refuse the
// benchmark's closed-loop clients.
func newSvc(bs, slots int) (*Svc, error) {
	s, err := serve.NewService(serve.Options{
		Planner:       engine.DMac,
		Cluster:       dist.ScaledConfig(clusterWorkers, clusterThreads),
		BlockSize:     bs,
		Slots:         slots,
		QueueCapacity: 64,
		DefaultQuota:  serve.TenantQuota{MaxConcurrent: 4, MaxQueued: 8, MaxBytes: 1 << 40},
	})
	if err != nil {
		return nil, err
	}
	return &Svc{s: s}, nil
}

// Job is one submission: a registry job (Workload + Params) or, with App
// set, the app's program as a programmatic job.
type Job struct {
	Tenant   string
	Workload string
	Params   map[string]float64
	App      *App
}

// JobDone is what the client of a finished job saw.
type JobDone struct {
	SubmitS, QueueS, RunS float64
	CommBytes, WireBytes  int64
	Digest                map[string]float64
}

// Do is the client's whole interaction: Submit, Wait, Result.
func (v *Svc) Do(ctx context.Context, j Job) (JobDone, error) {
	spec := serve.JobSpec{Tenant: j.Tenant, Workload: j.Workload, Params: workload.Params(j.Params)}
	if j.App != nil {
		spec.Program, spec.Inputs, spec.Iterations = j.App.Prog, j.App.Inputs, j.App.Iterations
		spec.Outputs, spec.Scalars, spec.Params = j.App.Outputs, j.App.Scalars, workload.Params(j.App.Params)
	}
	t := time.Now()
	st, err := v.s.Submit(spec)
	done := JobDone{SubmitS: time.Since(t).Seconds()}
	if err != nil {
		return done, err
	}
	st, err = v.s.Wait(ctx, st.ID)
	if err != nil {
		return done, err
	}
	if st.State != serve.StateDone {
		return done, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	res, err := v.s.Result(st.ID)
	if err != nil {
		return done, err
	}
	done.QueueS, done.RunS = st.QueueSec, st.RunSec
	done.CommBytes, done.WireBytes = st.CommBytes, st.WireBytes
	done.Digest = map[string]float64{}
	for k, x := range res.Scalars {
		done.Digest[k] = x
	}
	for name, g := range res.Grids {
		done.Digest["sum:"+name] = matrix.SumGrid(g)
	}
	return done, nil
}

// SvcStats are the service's own counters.
type SvcStats struct {
	Rejected             int64
	JobHits, JobMisses   int64
	PlanHits, PlanMisses int64
}

func (v *Svc) Stats() SvcStats {
	st := v.s.Stats()
	return SvcStats{
		Rejected: st.Rejected,
		JobHits:  st.JobCache.Hits, JobMisses: st.JobCache.Misses,
		PlanHits: st.PlanCache.Hits, PlanMisses: st.PlanCache.Misses,
	}
}

// Stop drains the service and waits for its dispatcher and engines.
func (v *Svc) Stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return v.s.Stop(ctx)
}
