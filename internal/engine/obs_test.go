package engine

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dmac/internal/dist"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/obs"
)

// TestRunTraced checks the span structure one traced Run emits: a run span
// carrying the plan-cache outcome, a stage span per stage, an op span per
// operator, and comm spans whose byte sums match the run's metrics exactly.
func TestRunTraced(t *testing.T) {
	e := New(DMac, testConfig(), tBS)
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	e.SetObserver(tr, reg)
	bindGNMF(t, e)
	prog := gnmfProgram(0.3)

	m, err := e.Run(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	var runs, stages, ops int
	var commBytes int64
	var commEvents int
	for _, s := range spans {
		switch {
		case s.Cat == "engine" && s.Name == "run":
			runs++
			if a, ok := s.Attr("plan_cache"); !ok || a.Str != "miss" {
				t.Errorf("first run plan_cache attr = %+v, want miss", a)
			}
			if s.Parent != 0 {
				t.Errorf("run span has parent %d", s.Parent)
			}
		case s.Cat == "engine" && strings.HasPrefix(s.Name, "stage "):
			stages++
		case s.Cat == "op":
			ops++
			if _, ok := s.Attr("stage"); !ok {
				t.Errorf("op span %q has no stage attr", s.Name)
			}
		case s.Cat == "comm":
			commEvents++
			a, ok := s.Attr("bytes")
			if !ok {
				t.Fatalf("comm span %q has no bytes attr", s.Name)
			}
			commBytes += a.Int
		}
	}
	if runs != 1 {
		t.Fatalf("got %d run spans, want 1", runs)
	}
	if stages != m.Stages {
		t.Fatalf("got %d stage spans, want %d", stages, m.Stages)
	}
	if ops == 0 {
		t.Fatal("no op spans recorded")
	}
	if commBytes != m.CommBytes {
		t.Fatalf("trace comm bytes = %d, Metrics.CommBytes = %d", commBytes, m.CommBytes)
	}
	if commEvents != m.CommEvents {
		t.Fatalf("trace comm events = %d, Metrics.CommEvents = %d", commEvents, m.CommEvents)
	}

	// Re-running the program converges the variable schemes and then hits
	// the plan cache (run 2 re-plans because schemes moved; run 3 hits);
	// counters and the run span attribute must agree with PlanCacheStats.
	for i := 0; i < 2; i++ {
		if _, err := e.Run(prog, nil); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := e.PlanCacheStats()
	snap := reg.Snapshot()
	if snap.Counters["plan.cache.hits"] != int64(hits) || snap.Counters["plan.cache.misses"] != int64(misses) {
		t.Fatalf("cache counters hits=%d misses=%d, PlanCacheStats=(%d, %d)",
			snap.Counters["plan.cache.hits"], snap.Counters["plan.cache.misses"], hits, misses)
	}
	if hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
	var hitRuns int
	for _, s := range tr.Spans() {
		if s.Cat == "engine" && s.Name == "run" {
			if a, ok := s.Attr("plan_cache"); ok && a.Str == "hit" {
				hitRuns++
			}
		}
	}
	if hitRuns != 1 {
		t.Fatalf("got %d cache-hit run spans, want 1", hitRuns)
	}
	if snap.Counters["op.compute.count"] == 0 {
		t.Fatal("op.compute.count not incremented")
	}
	if h, ok := snap.Histograms["op.compute.seconds"]; !ok || h.Count == 0 {
		t.Fatal("op.compute.seconds histogram empty")
	}
}

// TestMetricsPerStage checks the per-stage attribution satellite: stage
// rows partition the run totals exactly (bytes, events, FLOPs) and separate
// modelled network time from modelled compute time.
func TestMetricsPerStage(t *testing.T) {
	e := New(DMac, testConfig(), tBS)
	bindGNMF(t, e)
	m, err := e.Run(gnmfProgram(0.3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.PerStage) == 0 {
		t.Fatal("PerStage empty on a distributed run")
	}
	var bytes int64
	var events int
	var flops, wall, network, compute float64
	for i, st := range m.PerStage {
		if i > 0 && m.PerStage[i-1].Stage >= st.Stage {
			t.Fatalf("PerStage not sorted: %+v", m.PerStage)
		}
		bytes += st.CommBytes
		events += st.CommEvents
		flops += st.FLOPs
		wall += st.WallSeconds
		network += st.NetworkSeconds
		compute += st.ComputeSeconds
	}
	if bytes != m.CommBytes {
		t.Errorf("PerStage bytes sum = %d, CommBytes = %d", bytes, m.CommBytes)
	}
	if events != m.CommEvents {
		t.Errorf("PerStage events sum = %d, CommEvents = %d", events, m.CommEvents)
	}
	if flops != m.FLOPs {
		t.Errorf("PerStage FLOPs sum = %v, FLOPs = %v", flops, m.FLOPs)
	}
	if wall <= 0 || wall > m.WallSeconds {
		t.Errorf("PerStage wall sum = %v, run wall = %v", wall, m.WallSeconds)
	}
	if network <= 0 {
		t.Error("no stage reports modelled network time despite communication")
	}
	if compute <= 0 {
		t.Error("no stage reports modelled compute time")
	}
	// Metrics.Add must merge PerStage by stage, not concatenate, and must
	// not write into the rows of a Metrics it was copied from.
	before := slices.Clone(m.PerStage)
	total := m
	total.Add(m)
	if !slices.Equal(m.PerStage, before) {
		t.Fatalf("Add changed the rows of the Metrics it was copied from:\n%+v,\nwas %+v", m.PerStage, before)
	}
	if len(total.PerStage) != len(m.PerStage) {
		t.Fatalf("Add grew PerStage to %d rows, want %d", len(total.PerStage), len(m.PerStage))
	}
	moved := 0
	for i, st := range m.PerStage {
		if st.CommBytes == 0 {
			continue
		}
		moved++
		if got := total.PerStage[i].CommBytes; got != 2*st.CommBytes {
			t.Errorf("stage %d: Add gave %d B, want 2 × %d", st.Stage, got, st.CommBytes)
		}
	}
	if moved == 0 {
		t.Error("no stage moved bytes: the merge is never tested")
	}
}

// TestBroadcastShuffleSplit checks CommEvents is partitioned exactly into
// Broadcasts + Shuffles on a plan that exercises both.
func TestBroadcastShuffleSplit(t *testing.T) {
	e := New(DMac, testConfig(), tBS)
	bindGNMF(t, e)
	m, err := e.Run(gnmfProgram(0.3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.CommEvents == 0 {
		t.Fatal("plan moved no data; test needs communication")
	}
	if m.Broadcasts+m.Shuffles != m.CommEvents {
		t.Fatalf("Broadcasts(%d) + Shuffles(%d) != CommEvents(%d)",
			m.Broadcasts, m.Shuffles, m.CommEvents)
	}
	if m.Broadcasts == 0 {
		t.Error("GNMF plan should broadcast at least one small operand")
	}
	if m.Shuffles == 0 {
		t.Error("GNMF plan should shuffle at least once")
	}
}

// TestRunTracedWithFaults checks the retry/recovery episode spans: a killed
// worker produces more than one attempt span, a recover span, retry
// counters, and recovery comm spans whose bytes match RecoveryBytes.
func TestRunTracedWithFaults(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = dist.FaultPlan{Events: []dist.FaultEvent{
		{Stage: 1, Worker: 1, Attempt: 0, Kind: dist.FaultKillBoundary},
	}}
	e := New(DMac, cfg, tBS)
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	e.SetObserver(tr, reg)
	bindGNMF(t, e)
	m, err := e.Run(gnmfProgram(0.3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Retries == 0 {
		t.Fatal("fault plan injected no retry")
	}
	var attempts, recovers int
	var recoveryBytes int64
	for _, s := range tr.Spans() {
		switch {
		case s.Cat == "engine" && s.Name == "attempt":
			attempts++
		case s.Cat == "engine" && s.Name == "recover":
			recovers++
		case s.Cat == "comm" && s.Name == "recovery":
			a, _ := s.Attr("bytes")
			recoveryBytes += a.Int
		}
	}
	if attempts <= m.Stages {
		t.Fatalf("got %d attempt spans over %d stages; retry not traced", attempts, m.Stages)
	}
	if recovers == 0 {
		t.Fatal("no recover span recorded")
	}
	if recoveryBytes != m.RecoveryBytes {
		t.Fatalf("recovery span bytes = %d, Metrics.RecoveryBytes = %d", recoveryBytes, m.RecoveryBytes)
	}
	if got := reg.Counter("fault.retries").Value(); got != int64(m.Retries) {
		t.Fatalf("fault.retries counter = %d, Metrics.Retries = %d", got, m.Retries)
	}
}

// TestUntracedRunUnchanged pins that attaching no observer changes nothing:
// results and metrics equal a traced run's (determinism guard for the
// zero-overhead claim).
func TestUntracedRunUnchanged(t *testing.T) {
	run := func(observe bool) (Metrics, float64) {
		e := New(DMac, testConfig(), tBS)
		if observe {
			e.SetObserver(obs.NewTracer(), obs.NewRegistry())
		}
		bindGNMF(t, e)
		m, err := e.Run(gnmfProgram(0.3), nil)
		if err != nil {
			t.Fatal(err)
		}
		h, _ := e.Grid("H")
		return m, h.At(0, 0)
	}
	mOff, hOff := run(false)
	mOn, hOn := run(true)
	if hOff != hOn {
		t.Fatalf("observer changed results: %v != %v", hOff, hOn)
	}
	if mOff.CommBytes != mOn.CommBytes || mOff.CommEvents != mOn.CommEvents ||
		mOff.ModelSeconds != mOn.ModelSeconds || mOff.FLOPs != mOn.FLOPs {
		t.Fatalf("observer changed metrics: %+v != %+v", mOff, mOn)
	}
}

// BenchmarkRunTracing measures the overhead of the observability layer on a
// full Run: "off" is the nil-observer fast path the <2% overhead budget
// applies to.
func BenchmarkRunTracing(b *testing.B) {
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			e := New(DMac, testConfig(), tBS)
			if mode == "on" {
				e.SetObserver(obs.NewTracer(), obs.NewRegistry())
			}
			rng := rand.New(rand.NewSource(42))
			binds := map[string]*matrix.Grid{
				"V": randSparseGrid(rng, tRows, tCols, tBS, 0.3),
				"W": randDenseGrid(rng, tRows, tK, tBS),
				"H": randDenseGrid(rng, tK, tCols, tBS),
			}
			for name, g := range binds {
				if err := e.Bind(name, g); err != nil {
					b.Fatal(err)
				}
			}
			prog := gnmfProgram(0.3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(prog, nil); err != nil {
					b.Fatal(err)
				}
				if mode == "on" {
					e.Tracer().Reset()
				}
			}
		})
	}
}

// TestLocalKernelFlopsMatchCharges: the scheduler's kernel.mul.flops and the
// engine's Metrics.FLOPs price a multiply with the same function, so on a
// program of multiplications alone — hypersparse ones, where the right
// operand stores a fractional number of elements per row — the two agree.
func TestLocalKernelFlopsMatchCharges(t *testing.T) {
	diagonals := func(nnz int) *matrix.Grid {
		coords := make([]matrix.Coord, nnz)
		for i := range coords {
			coords[i] = matrix.Coord{Row: i % 16, Col: (i + i/16) % 16, Val: 1}
		}
		return matrix.FromCoords(16, 16, tBS, coords)
	}
	e := New(Local, testConfig(), tBS)
	reg := obs.NewRegistry()
	e.SetObserver(nil, reg)
	for name, g := range map[string]*matrix.Grid{"A": diagonals(32), "B": diagonals(24)} {
		if err := e.Bind(name, g); err != nil {
			t.Fatal(err)
		}
	}
	p := expr.NewProgram()
	A := p.Var("A", 16, 16, 32.0/256)
	B := p.Var("B", 16, 16, 24.0/256)
	p.Assign("C", p.Mul(p.Mul(A, B), B)) // 2*32*1.5, then a dense left operand
	m, err := e.Run(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["kernel.mul.flops"]; m.FLOPs <= 0 || float64(got) != m.FLOPs {
		t.Errorf("kernel.mul.flops = %d, Metrics.FLOPs = %v: the multiply share of a run's charges and the kernel metric disagree", got, m.FLOPs)
	}
}

// TestOpSpanFormatsNothing: once an operator of a cached plan has been
// named, opening its span allocates its one attribute slice: the name is
// the operator's kept Label, and stage names and dep_inN keys are constants,
// so nothing is formatted.
func TestOpSpanFormatsNothing(t *testing.T) {
	e := New(DMac, testConfig(), tBS)
	tr := obs.NewTracer()
	e.SetObserver(tr, nil)
	bindGNMF(t, e)
	plan, err := e.Plan(gnmfProgram(0.3))
	if err != nil {
		t.Fatal(err)
	}
	deps := 0
	for _, op := range plan.Ops {
		op.Label()
		open := func() {
			tr.End(e.opSpan(plan, op, 0))
			tr.Reset()
		}
		open()
		if a := testing.AllocsPerRun(50, open); a > 1 {
			t.Errorf("op span %q: %v allocations, want at most 1", op.Label(), a)
		}
		tr.End(e.opSpan(plan, op, 0))
		if _, ok := tr.Spans()[0].Attr("dep_in0"); ok {
			deps++
		}
		tr.Reset()
	}
	if deps == 0 {
		t.Fatal("no operator span carried a dependency attribute")
	}
	if a := testing.AllocsPerRun(10, func() { _, _ = stageName(3), depInKey(1) }); a != 0 {
		t.Errorf("stage and dependency names: %v allocations", a)
	}
}
