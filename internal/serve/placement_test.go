package serve

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dmac/internal/core"
	"dmac/internal/dist"
	"dmac/internal/engine"
	"dmac/internal/matrix"
	"dmac/internal/obs"
	"dmac/internal/rewrite"
	"dmac/internal/workload"
)

// placementSpecs are the registry jobs the placement tests repeat: each job
// at the serve_mix benchmark's parameters and at its smoke parameters, and
// FuzzRegistryBuild's seeds, mapped to params as that fuzz target maps them
// and skipped by its rule (a dimension above 300).
func placementSpecs() []JobSpec {
	specs := []JobSpec{
		{Workload: "pagerank", Params: workload.Params{"nodes": 1024, "iters": 5, "degree": 8}},
		{Workload: "gram", Params: workload.Params{"rows": 512, "cols": 128, "sparsity": 0.05}},
		{Workload: "blend", Params: workload.Params{"n": 256, "k": 32, "iters": 2}},
		{Workload: "pagerank", Params: workload.Params{"nodes": 64, "iters": 2, "degree": 3}},
		{Workload: "gram", Params: workload.Params{"rows": 32, "cols": 16, "sparsity": 0.2}},
		{Workload: "blend", Params: workload.Params{"n": 32, "k": 4, "iters": 1}},
	}
	names := workload.DefaultRegistry().Names()
	for _, seed := range []struct {
		w                          int
		dim, second, third, seedNo float64
	}{
		{0, 64, 1e13, 3, 1},
		{0, 48, 3, 2, 1},
		{1, 48, 32, 0.2, 2},
		{1, 200, 9, math.NaN(), -1},
		{2, 48, 8, 1, 3},
		{2, -5, 1e300, math.Inf(-1), 1e19},
	} {
		name := names[seed.w%len(names)]
		var params workload.Params
		switch name {
		case "pagerank":
			params = workload.Params{"nodes": seed.dim, "degree": seed.second, "iters": seed.third, "seed": seed.seedNo}
		case "gram":
			params = workload.Params{"rows": seed.dim, "cols": seed.second, "sparsity": seed.third, "seed": seed.seedNo}
		case "blend":
			params = workload.Params{"n": seed.dim, "k": seed.second, "iters": seed.third, "seed": seed.seedNo}
		}
		if seed.dim > 300 || (name != "pagerank" && seed.second > 300) {
			continue
		}
		specs = append(specs, JobSpec{Workload: name, Params: params})
	}
	for i := range specs {
		specs[i].Tenant = "alice"
	}
	return specs
}

// commKinds sums a run's "comm" spans' bytes by kind, leaving out kinds
// that moved nothing.
func commKinds(spans []obs.Span) map[string]int64 {
	out := make(map[string]int64)
	for _, sp := range spans {
		if sp.Cat != "comm" {
			continue
		}
		if a, _ := sp.Attr("bytes"); a.Int != 0 {
			out[sp.Name] += a.Int
		}
	}
	return out
}

// bareRun is what a bare engine gives a registry job: an engine set up as a
// slot's, the job's build bound into it and run for its iterations, the
// outputs and scalars it leaves, its bytes by comm kind, and, by kind, the
// bytes of the partitions and broadcasts of the inputs the program never
// assigns: what a slot that kept those inputs where it placed them moves no
// more.
type bareRun struct {
	grids   map[string]*matrix.Grid
	scalars map[string]float64
	kinds   map[string]int64
	kept    map[string]int64
}

func runBare(t *testing.T, opts Options, spec JobSpec, bs int) bareRun {
	t.Helper()
	built, err := workload.DefaultRegistry().Build(spec.Workload, bs, spec.Params)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(opts.Planner, opts.Cluster, bs)
	defer e.Close()
	tr := obs.NewTracer()
	e.SetObserver(tr, nil)
	if !opts.DisableRewrite {
		e.SetRewriter(rewrite.New())
	}
	for n, g := range built.Inputs {
		if err := e.Bind(n, g); err != nil {
			t.Fatal(err)
		}
	}
	kept := make(map[string]bool)
	for n := range built.Inputs {
		kept[n] = true
	}
	for _, a := range built.Program.Assignments() {
		delete(kept, a.Name)
	}
	r := bareRun{grids: make(map[string]*matrix.Grid), scalars: make(map[string]float64),
		kinds: make(map[string]int64), kept: make(map[string]int64)}
	for i := 0; i < built.Iterations; i++ {
		plan, err := e.Plan(built.Program)
		if err != nil {
			t.Fatal(err)
		}
		tr.Reset()
		if _, err := e.Run(built.Program, spec.Params); err != nil {
			t.Fatal(err)
		}
		spans := tr.Spans()
		for k, b := range commKinds(spans) {
			r.kinds[k] += b
		}
		for k, b := range keptMoves(t, plan, spans, kept) {
			r.kept[k] += b
		}
	}
	for _, n := range built.Outputs {
		g, ok := e.Grid(n)
		if !ok {
			t.Fatalf("bare run produced no output %q", n)
		}
		r.grids[n] = g
	}
	for _, n := range built.Scalars {
		r.scalars[n], _ = e.Scalar(n)
	}
	return r
}

// keptMoves sums, by comm kind, the bytes a run of plan charged to the
// partitions and broadcasts of a kept variable's leaf, seen through
// transposes that move nothing. Within a stage those operators begin in
// plan order, so the i-th of them in the plan is the i-th "op" span of them
// the stage started.
func keptMoves(t *testing.T, plan *core.Plan, spans []obs.Span, kept map[string]bool) map[string]int64 {
	t.Helper()
	producer := make(map[core.ValueID]*core.Op)
	for _, op := range plan.Ops {
		if op.Output >= 0 {
			producer[op.Output] = op
		}
	}
	readsKept := func(op *core.Op) bool {
		for src := producer[op.Inputs[0]]; src != nil; src = producer[src.Inputs[0]] {
			switch {
			case src.Kind == core.OpVar || src.Kind == core.OpLoad:
				return kept[src.Node.Name]
			case src.Kind != core.OpTranspose || src.CommBytes > 0:
				return false
			}
		}
		return false
	}
	moves := func(name string) bool { return name == "partition" || name == "broadcast" }
	slices.SortFunc(spans, func(a, b obs.Span) int { return int(a.ID) - int(b.ID) })
	keptSpan := make(map[obs.SpanID]bool)
	for s := 1; s <= plan.Stages; s++ {
		var ops []*core.Op
		for _, op := range plan.StageOps(s) {
			if op.Kind == core.OpPartition || op.Kind == core.OpBroadcast {
				ops = append(ops, op)
			}
		}
		var opSpans []obs.Span
		for _, sp := range spans {
			if stage, _ := sp.Attr("stage"); sp.Cat == "op" && stage.Int == int64(s) && moves(strings.Fields(sp.Name)[0]) {
				opSpans = append(opSpans, sp)
			}
		}
		if len(opSpans) != len(ops) {
			t.Fatalf("stage %d: %d partition and broadcast spans for %d operators", s, len(opSpans), len(ops))
		}
		for i, op := range ops {
			keptSpan[opSpans[i].ID] = readsKept(op)
		}
	}
	out := make(map[string]int64)
	for _, sp := range spans {
		if a, _ := sp.Attr("bytes"); sp.Cat == "comm" && moves(sp.Name) && keptSpan[sp.Parent] && a.Int != 0 {
			out[sp.Name] += a.Int
		}
	}
	return out
}

// minus is a's bytes by kind less b's, leaving out kinds that end at zero.
func minus(a, b map[string]int64) map[string]int64 {
	out := maps.Clone(a)
	for k, v := range b {
		out[k] -= v
		if out[k] == 0 {
			delete(out, k)
		}
	}
	return out
}

// recordSpans has s hand each job's spans to the returned map as it drains
// them.
func recordSpans(s *Service) (map[string][]obs.Span, *sync.Mutex) {
	var mu sync.Mutex
	spans := make(map[string][]obs.Span)
	s.beforeDrain = func(id string, sp []obs.Span) {
		mu.Lock()
		spans[id] = sp
		mu.Unlock()
	}
	return spans, &mu
}

// TestPlacementRepeatsBitIdentical is the property of a slot that keeps its
// cached builds' inputs where it placed them: every registry job key runs
// four times on one slot. The first request builds the job and drops the
// build, the second builds it again, runs and leaves the cache its
// placement, and the third and fourth start from it. Every run gives the
// bits of a bare engine's run of the job, and by comm kind the first two
// charge what the bare run charges, the last two exactly that less the
// partitions and broadcasts of the inputs the program never assigns.
func TestPlacementRepeatsBitIdentical(t *testing.T) {
	for _, floor := range []int{8, 32} {
		opts := testOptions()
		opts.Slots = 1
		opts.BlockSize = floor
		s := newTestService(t, opts)
		spans, mu := recordSpans(s)
		placed := int64(0)
		for _, spec := range placementSpecs() {
			label := fmt.Sprintf("block floor %d: %s %v", floor, spec.Workload, spec.Params)
			var want bareRun
			for run := 0; run < 4; run++ {
				st := runDone(t, s, spec)
				if run == 0 {
					want = runBare(t, opts, spec, st.BlockSize)
				}
				res, err := s.Result(st.ID)
				if err != nil {
					t.Fatal(err)
				}
				if d := resultDiff(res, want.grids, want.scalars); d != "" {
					t.Errorf("%s: run %d differs from a bare engine's: %s", label, run+1, d)
				}
				wantKinds := want.kinds
				if run >= 2 {
					wantKinds = minus(want.kinds, want.kept)
				}
				mu.Lock()
				got := commKinds(spans[st.ID])
				mu.Unlock()
				if !maps.Equal(got, wantKinds) {
					t.Errorf("%s: run %d charges %v by kind, want %v (bare %v, kept inputs' moves %v)",
						label, run+1, got, wantKinds, want.kinds, want.kept)
				}
				var sum int64
				for _, b := range got {
					sum += b
				}
				if st.CommBytes != sum {
					t.Errorf("%s: run %d charged %d B, its trace %d B", label, run+1, st.CommBytes, sum)
				}
			}
			placed += 2
			if c := jobCacheStats(s); c.Placed != placed {
				t.Errorf("%s: %d jobs started placed, want %d", label, c.Placed, placed)
			}
		}
	}
}

// TestPlacementLeavesWithItsBuild: evicting a build drops every slot's
// placement of it, and a build the cache admits again starts from none.
func TestPlacementLeavesWithItsBuild(t *testing.T) {
	c := newJobCache(1 << 20)
	reg := workload.DefaultRegistry()
	build := func(seed float64) (string, *workload.BuiltJob) {
		params := workload.Params{"rows": 40, "cols": 24, "seed": seed}
		b, err := reg.Build("gram", 8, params)
		if err != nil {
			t.Fatal(err)
		}
		return jobCacheKey("gram", params), b
	}
	key, b := build(1)
	c.put(key, b)
	c.put(key, b)
	e := engine.New(engine.DMac, testOptions().Cluster, 8)
	defer e.Close()
	for n, g := range b.Inputs {
		if err := e.Bind(n, g); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(b.Program, nil); err != nil {
		t.Fatal(err)
	}
	p := e.Placement()
	e.Reset()
	for n, g := range b.Inputs {
		if err := e.Bind(n, g); err != nil {
			t.Fatal(err)
		}
	}
	if e.Place(p) == 0 {
		t.Fatal("a gram run placed none of its inputs")
	}
	c.place(key, b, 0, p)
	c.place(key, b, 1, p)
	if _, ok := c.placement(key, b, 0); !ok {
		t.Fatal("the cache keeps no placement of a build it holds")
	}
	// A placement of a build the cache does not hold is not kept.
	_, other := build(1)
	c.place(key, other, 2, p)
	if _, ok := c.placement(key, b, 2); ok {
		t.Error("the cache keeps a placement of another build of its key")
	}
	// Fill the cache with other keys until the build is evicted.
	for seed := 2.0; c.entries[key] != nil; seed++ {
		k, o := build(seed)
		c.put(k, o)
		c.put(k, o)
	}
	for _, el := range c.entries {
		if it := el.Value.(*jobCacheItem); len(it.placed) != 0 {
			t.Errorf("%s holds a placement it was never given", it.key)
		}
	}
	c.put(key, b)
	c.put(key, b)
	for slot := 0; slot < 3; slot++ {
		if _, ok := c.placement(key, b, slot); ok {
			t.Errorf("slot %d: the build admitted again starts from an evicted placement", slot)
		}
	}
}

// TestPlacementDroppedByWorkerLoss: a worker killed on a slot takes the
// blocks placed on it. The job the kill hits retries its stage and leaves no
// placement, and the key's next job on the slot binds its inputs afresh,
// although the cache still holds the placement taken before the kill; the
// job after that starts from the placement taken with the worker dead.
// Every result keeps a bare engine's bits.
func TestPlacementDroppedByWorkerLoss(t *testing.T) {
	opts := testOptions()
	opts.Slots = 1
	// A gram job is one engine run, so job 3 is the slot's run 3.
	opts.Cluster.Faults = dist.FaultPlan{Events: []dist.FaultEvent{
		{Run: 3, Stage: 1, Worker: 1, Kind: dist.FaultKillBoundary},
	}}
	s := newTestService(t, opts)
	spec := placementSpecs()[1]
	bare := opts
	bare.Cluster.Faults = dist.FaultPlan{}
	var want bareRun
	wantPlaced := []int64{0, 0, 1, 1, 2}
	for run := range wantPlaced {
		st := runDone(t, s, spec)
		if run == 0 {
			want = runBare(t, bare, spec, st.BlockSize)
		}
		res, err := s.Result(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if d := resultDiff(res, want.grids, want.scalars); d != "" {
			t.Errorf("run %d differs from a bare engine's: %s", run+1, d)
		}
		if (st.Retries > 0) != (run == 2) {
			t.Fatalf("run %d retried %d stages; only run 3 meets the kill", run+1, st.Retries)
		}
		if c := jobCacheStats(s); c.Placed != wantPlaced[run] {
			t.Errorf("after run %d, %d jobs started placed, want %d", run+1, c.Placed, wantPlaced[run])
		}
	}
}

// TestPlacementPerSlot: two slots running one key at once each keep the
// placement their own engine left, restore it on the key's next job there,
// and every job keeps a bare engine's bits.
func TestPlacementPerSlot(t *testing.T) {
	opts := testOptions()
	opts.Slots = 2
	s := newTestService(t, opts)
	spec := placementSpecs()[2]
	want := runBare(t, opts, spec, runDone(t, s, spec).BlockSize)
	// Each job waits, slot still leased, until the other job of its round
	// reaches the same point: the two run on different slots.
	arrive, release := make(chan string), make(chan struct{})
	s.beforeDrain = func(id string, _ []obs.Span) {
		arrive <- id
		<-release
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for round := 0; round < 3; round++ {
		for i := 0; i < 2; i++ {
			if _, err := s.Submit(spec); err != nil {
				t.Fatal(err)
			}
		}
		ids := []string{<-arrive, <-arrive}
		release <- struct{}{}
		release <- struct{}{}
		for _, id := range ids {
			st, err := s.Wait(ctx, id)
			if err != nil || st.State != StateDone {
				t.Fatalf("job %s: state %s, err %v", id, st.State, err)
			}
			res, err := s.Result(id)
			if err != nil {
				t.Fatal(err)
			}
			if d := resultDiff(res, want.grids, want.scalars); d != "" {
				t.Errorf("round %d: %s differs from a bare engine's: %s", round+1, id, d)
			}
		}
		// Round 1 leaves a placement on each slot; each later round
		// restores both.
		if c, want := jobCacheStats(s), int64(2*round); c.Placed != want {
			t.Errorf("after round %d, %d jobs started placed, want %d", round+1, c.Placed, want)
		}
	}
	s.jobCache.mu.Lock()
	it := s.jobCache.entries[jobCacheKey(spec.Workload, spec.Params)].Value.(*jobCacheItem)
	var slots []int
	for slot := range it.placed {
		slots = append(slots, slot)
	}
	s.jobCache.mu.Unlock()
	slices.Sort(slots)
	if !slices.Equal(slots, []int{0, 1}) {
		t.Errorf("the build holds placements of slots %v, want [0 1]", slots)
	}
}
