package dist

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"dmac/internal/cost"
	"dmac/internal/dep"
	"dmac/internal/matrix"
)

func testCluster() *Cluster {
	return NewCluster(Config{Workers: 4, LocalParallelism: 2})
}

func randGrid(rng *rand.Rand, rows, cols, bs int, sparsity float64) *matrix.Grid {
	if sparsity >= 1 {
		data := make([]float64, rows*cols)
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		return matrix.FromDense(rows, cols, bs, data)
	}
	var coords []matrix.Coord
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < sparsity {
				coords = append(coords, matrix.Coord{Row: i, Col: j, Val: rng.NormFloat64()})
			}
		}
	}
	return matrix.FromCoords(rows, cols, bs, coords)
}

func TestConfigDefaults(t *testing.T) {
	c := NewCluster(Config{})
	cfg := c.Config()
	if cfg.Workers != 4 || cfg.LocalParallelism != 8 {
		t.Errorf("defaults: workers=%d L=%d", cfg.Workers, cfg.LocalParallelism)
	}
	if cfg.BandwidthBytesPerSec <= 0 || cfg.ShuffleLatencySec <= 0 || cfg.FlopsPerSecPerThread <= 0 {
		t.Error("time-model defaults missing")
	}
	if c.Workers() != 4 || c.LocalParallelism() != 8 {
		t.Error("accessors wrong")
	}
}

func TestPartitionChargesMatrixSize(t *testing.T) {
	c := testCluster()
	rng := rand.New(rand.NewSource(1))
	g := randGrid(rng, 20, 20, 5, 1)
	m := NewDistMatrix(g, dep.SchemeNone)
	out, err := c.Partition(context.Background(), m, dep.Row, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Scheme != dep.Row {
		t.Errorf("scheme = %s", out.Scheme)
	}
	s := c.Net().Snapshot()
	if s.CommBytes != g.MemBytes() {
		t.Errorf("bytes = %d, want |A| = %d", s.CommBytes, g.MemBytes())
	}
	if s.CommEvents != 1 || s.Shuffles != 1 {
		t.Errorf("events=%d shuffles=%d, want 1/1", s.CommEvents, s.Shuffles)
	}
	if _, err := c.Partition(context.Background(), m, dep.Broadcast, 1); err == nil {
		t.Error("partition to broadcast must fail")
	}
}

// TestBroadcastSparesOwners: a full broadcast of a Row matrix reaches every
// worker and charges each block once per receiver that does not own it —
// 3 x 4 blocks, each on one of the four receivers, so (N−1)|A| = 3|A|. A
// broadcast replica broadcast again goes only to the receivers that do not
// hold it: nowhere for a full replica, the two workers it missed (2|A|) for
// one narrowed to workers 0 and 1.
func TestBroadcastSparesOwners(t *testing.T) {
	c := testCluster()
	rng := rand.New(rand.NewSource(2))
	g := randGrid(rng, 12, 12, 4, 1)
	m := NewDistMatrix(g, dep.Row)
	out, err := c.Broadcast(context.Background(), m, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Scheme != dep.Broadcast {
		t.Errorf("scheme = %s", out.Scheme)
	}
	if got := c.Net().Snapshot().CommBytes; got != 3*g.MemBytes() {
		t.Errorf("bytes = %d, want (N−1)|A| = %d", got, 3*g.MemBytes())
	}
	if _, err := c.Broadcast(context.Background(), out, 3, nil); err != nil {
		t.Fatal(err)
	}
	if got := c.Net().Snapshot().CommBytes; got != 3*g.MemBytes() {
		t.Errorf("re-broadcast full replica charged %d B, want 0", got-3*g.MemBytes())
	}
	c = testCluster()
	narrow, err := c.Broadcast(context.Background(), m, 2, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	before := c.Net().Snapshot().CommBytes
	if _, err := c.Broadcast(context.Background(), narrow, 3, nil); err != nil {
		t.Fatal(err)
	}
	if got := c.Net().Snapshot().CommBytes - before; got != 2*g.MemBytes() {
		t.Errorf("re-broadcast of a replica on workers 0 and 1 charged %d B, want 2|A| = %d", got, 2*g.MemBytes())
	}
}

func TestExtractAndTransposeAreFree(t *testing.T) {
	c := testCluster()
	rng := rand.New(rand.NewSource(3))
	g := randGrid(rng, 10, 14, 4, 0.3)
	b := NewDistMatrix(g, dep.Broadcast)
	r, err := c.Extract(context.Background(), b, dep.Row)
	if err != nil {
		t.Fatal(err)
	}
	if r.Scheme != dep.Row {
		t.Errorf("extract scheme = %s", r.Scheme)
	}
	tr := c.Transpose(context.Background(), r)
	if tr.Scheme != dep.Col {
		t.Errorf("transpose scheme = %s, want c", tr.Scheme)
	}
	if tr.Rows() != 14 || tr.Cols() != 10 {
		t.Errorf("transpose shape %dx%d", tr.Rows(), tr.Cols())
	}
	if got := c.Net().Snapshot().CommBytes; got != 0 {
		t.Errorf("local ops moved %d bytes", got)
	}
	if _, err := c.Extract(context.Background(), r, dep.Col); err == nil {
		t.Error("extract from non-broadcast must fail")
	}
	if _, err := c.Extract(context.Background(), b, dep.Broadcast); err == nil {
		t.Error("extract to broadcast must fail")
	}
}

func TestShuffleTransposeCharges(t *testing.T) {
	c := testCluster()
	rng := rand.New(rand.NewSource(4))
	g := randGrid(rng, 8, 8, 3, 1)
	m := NewDistMatrix(g, dep.Row)
	out, err := c.ShuffleTranspose(context.Background(), m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Scheme != dep.Col {
		t.Errorf("scheme = %s", out.Scheme)
	}
	if got := c.Net().Snapshot().CommBytes; got != g.MemBytes() {
		t.Errorf("bytes = %d, want %d", got, g.MemBytes())
	}
}

func TestMultiplyStrategiesCorrectAndAccounted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ga := randGrid(rng, 15, 10, 4, 0.4)
	gb := randGrid(rng, 10, 12, 4, 1)
	want, err := matrix.MulGrid(ga, gb)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		strategy  MulStrategy
		sa, sb    dep.Scheme
		outScheme dep.Scheme
		wantOut   dep.Scheme
		comm      func(out *DistMatrix) int64
	}{
		{RMM1, dep.Broadcast, dep.Col, dep.SchemeNone, dep.Col, func(*DistMatrix) int64 { return 0 }},
		{RMM2, dep.Row, dep.Broadcast, dep.SchemeNone, dep.Row, func(*DistMatrix) int64 { return 0 }},
		// A's three block-columns are on workers 0-2, which hold the
		// partials; each ships its own to every block owned by another. A
		// Col output's blocks are all on a sender: 2|C| = 2 x 1440 B. A Row
		// output's last block-row (3 x 12, 288 B) is on worker 3, which
		// holds no partial and gets all three: 2|C| + 288 B.
		{CPMM, dep.Col, dep.Row, dep.Row, dep.Row, func(*DistMatrix) int64 { return 3168 }},
		{CPMM, dep.Col, dep.Row, dep.Col, dep.Col, func(*DistMatrix) int64 { return 2880 }},
	}
	for _, tc := range cases {
		c := testCluster()
		a := NewDistMatrix(ga, tc.sa)
		b := NewDistMatrix(gb, tc.sb)
		out, err := c.Multiply(context.Background(), a, b, tc.strategy, tc.outScheme, 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.strategy, err)
		}
		if !matrix.GridEqual(out.Grid, want, 1e-9) {
			t.Errorf("%s: wrong product", tc.strategy)
		}
		if out.Scheme != tc.wantOut {
			t.Errorf("%s: out scheme %s, want %s", tc.strategy, out.Scheme, tc.wantOut)
		}
		if got := c.Net().Snapshot().CommBytes; got != tc.comm(out) {
			t.Errorf("%s: comm %d, want %d", tc.strategy, got, tc.comm(out))
		}
		if c.Net().Snapshot().FLOPs <= 0 {
			t.Errorf("%s: no FLOPs recorded", tc.strategy)
		}
	}
}

func TestMultiplySchemeValidation(t *testing.T) {
	c := testCluster()
	rng := rand.New(rand.NewSource(6))
	a := NewDistMatrix(randGrid(rng, 4, 4, 2, 1), dep.Row)
	b := NewDistMatrix(randGrid(rng, 4, 4, 2, 1), dep.Row)
	if _, err := c.Multiply(context.Background(), a, b, RMM1, dep.SchemeNone, 1); err == nil {
		t.Error("RMM1 with wrong schemes must fail")
	}
	if _, err := c.Multiply(context.Background(), a, b, MulStrategy(9), dep.SchemeNone, 1); err == nil {
		t.Error("unknown strategy must fail")
	}
	aCol := NewDistMatrix(a.Grid, dep.Col)
	if _, err := c.Multiply(context.Background(), aCol, b, CPMM, dep.Broadcast, 1); err == nil {
		t.Error("CPMM to broadcast must fail")
	}
}

// oneLink is the tree of a single operator over its inputs.
func oneLink(l matrix.CellLink) *matrix.CellTree {
	l.A = matrix.CellInput(0)
	inputs := 1
	if l.Kind == matrix.LinkBin {
		l.B, inputs = matrix.CellInput(1), 2
	}
	return &matrix.CellTree{Inputs: inputs, Links: []matrix.CellLink{l}}
}

func TestCellwiseAndScalar(t *testing.T) {
	c := testCluster()
	rng := rand.New(rand.NewSource(7))
	ga := randGrid(rng, 9, 9, 3, 1)
	gb := randGrid(rng, 9, 9, 3, 1)
	a := NewDistMatrix(ga, dep.Col)
	b := NewDistMatrix(gb, dep.Col)
	mul := oneLink(matrix.CellLink{Kind: matrix.LinkBin, BinOp: matrix.OpCellMul})
	add := oneLink(matrix.CellLink{Kind: matrix.LinkBin, BinOp: matrix.OpAdd})
	double := oneLink(matrix.CellLink{Kind: matrix.LinkScalar, ScalarOp: matrix.ScalarMul, Const: 2})
	out, err := c.Cells(context.Background(), mul, []*DistMatrix{a, b}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Scheme != dep.Col {
		t.Errorf("cellwise scheme %s", out.Scheme)
	}
	want, _ := matrix.CellwiseGrid(matrix.OpCellMul, ga, gb)
	if matrix.BitDiff(out.Grid, want) != "" {
		t.Error("cellwise result wrong")
	}
	if got := c.Net().Snapshot().CommBytes; got != 0 {
		t.Errorf("cellwise moved %d bytes", got)
	}
	if _, err := c.Cells(context.Background(), add, []*DistMatrix{a, NewDistMatrix(gb, dep.Row)}, -1); err == nil {
		t.Error("mismatched schemes must fail")
	}
	if _, err := c.Cells(context.Background(), add, []*DistMatrix{NewDistMatrix(ga, dep.SchemeNone), NewDistMatrix(gb, dep.SchemeNone)}, -1); err == nil {
		t.Error("hash scheme cellwise must fail")
	}
	if _, err := c.Cells(context.Background(), add, []*DistMatrix{a, NewDistMatrix(randGrid(rng, 9, 8, 3, 1), dep.Col)}, -1); !errors.Is(err, matrix.ErrShape) {
		t.Errorf("mismatched shapes: %v, want ErrShape", err)
	}
	sc, err := c.Cells(context.Background(), double, []*DistMatrix{a}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if matrix.BitDiff(sc.Grid, matrix.ScalarGrid(matrix.ScalarMul, ga, 2)) != "" {
		t.Error("scalar result wrong")
	}
	if _, err := c.Cells(context.Background(), double, []*DistMatrix{NewDistMatrix(ga, dep.SchemeNone)}, -1); err == nil {
		t.Error("scalar on hash scheme must fail")
	}

	// A tree charges what its operators cost one at a time, in link order,
	// and the result is theirs composed: sqrt(|a * b|) + 2a.
	tree := &matrix.CellTree{Inputs: 3, Links: []matrix.CellLink{
		{Kind: matrix.LinkBin, BinOp: matrix.OpCellMul, A: matrix.CellInput(0), B: matrix.CellInput(1)},
		{Kind: matrix.LinkFunc, UFunc: matrix.FuncAbs, A: matrix.CellValue(0)},
		{Kind: matrix.LinkFunc, UFunc: matrix.FuncSqrt, A: matrix.CellValue(1)},
		{Kind: matrix.LinkScalar, ScalarOp: matrix.ScalarMul, Const: 2, A: matrix.CellInput(2)},
		{Kind: matrix.LinkBin, BinOp: matrix.OpAdd, A: matrix.CellValue(2), B: matrix.CellValue(3)},
	}}
	before := c.Net().Snapshot().FLOPs
	fused, err := c.Cells(context.Background(), tree, []*DistMatrix{a, b, a}, -1)
	if err != nil {
		t.Fatal(err)
	}
	wantFLOPs := cost.CellwiseFLOPs(9, 9) + 2*cost.UFuncFLOPs(9, 9) + cost.ScalarFLOPs(float64(ga.NNZ())) + cost.CellwiseFLOPs(9, 9)
	if got := c.Net().Snapshot().FLOPs - before; got != wantFLOPs {
		t.Errorf("tree charged %v flops, its links one at a time %v", got, wantFLOPs)
	}
	ref, _ := matrix.CellwiseGrid(matrix.OpAdd,
		applyGrid(matrix.FuncSqrt, applyGrid(matrix.FuncAbs, want)),
		matrix.ScalarGrid(matrix.ScalarMul, ga, 2))
	if matrix.BitDiff(fused.Grid, ref) != "" {
		t.Error("tree result differs from its links composed")
	}
	if got, scan := fused.Grid.NNZ(), matrix.ScalarGrid(matrix.ScalarMul, fused.Grid, 1).NNZ(); got != scan {
		t.Errorf("seeded NNZ %d, a scan counts %d", got, scan)
	}
}

// Views in one orientation combine on their stored grids and stay a view;
// mixed orientations materialize, whatever the number of inputs.
func TestCellsTransposeViews(t *testing.T) {
	c := testCluster()
	rng := rand.New(rand.NewSource(8))
	ga, gb, gc := randGrid(rng, 6, 9, 3, 1), randGrid(rng, 6, 9, 3, 1), randGrid(rng, 9, 6, 3, 1)
	tree := &matrix.CellTree{Inputs: 3, Links: []matrix.CellLink{
		{Kind: matrix.LinkBin, BinOp: matrix.OpCellMul, A: matrix.CellInput(0), B: matrix.CellInput(1)},
		{Kind: matrix.LinkBin, BinOp: matrix.OpSub, A: matrix.CellValue(0), B: matrix.CellInput(2)},
	}}
	prod, _ := matrix.CellwiseGrid(matrix.OpCellMul, ga, gb)
	want, _ := matrix.CellwiseGrid(matrix.OpSub, prod.Transpose(), gc)

	view := func(g *matrix.Grid) *DistMatrix { return c.Transpose(context.Background(), NewDistMatrix(g, dep.Row)) }
	mixed, err := c.Cells(context.Background(), tree, []*DistMatrix{view(ga), view(gb), NewDistMatrix(gc, dep.Col)}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Trans() || matrix.BitDiff(mixed.Grid, want) != "" {
		t.Errorf("mixed orientations: view=%v, or wrong result", mixed.Trans())
	}
	same, err := c.Cells(context.Background(), tree, []*DistMatrix{view(ga), view(gb), view(gc.Transpose())}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !same.Trans() || same.Scheme != dep.Col || matrix.BitDiff(c.MaterializedGrid(same), want) != "" {
		t.Errorf("one orientation: view=%v scheme=%s, or wrong result", same.Trans(), same.Scheme)
	}
}

// TestCellsLeavesItsInputsAlone: a cell-wise operator over mixed
// orientations transposes its views into grids of its own. The inputs stay
// the views they were — other operators of the stage may be reading them at
// the same time.
func TestCellsLeavesItsInputsAlone(t *testing.T) {
	c := testCluster()
	rng := rand.New(rand.NewSource(11))
	ga, gb := randGrid(rng, 6, 9, 3, 1), randGrid(rng, 9, 6, 3, 1)
	view := c.Transpose(context.Background(), NewDistMatrix(ga, dep.Row))
	plain := NewDistMatrix(gb, dep.Col)
	add := oneLink(matrix.CellLink{Kind: matrix.LinkBin, BinOp: matrix.OpAdd})
	out, err := c.Cells(context.Background(), add, []*DistMatrix{view, plain}, -1)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := matrix.CellwiseGrid(matrix.OpAdd, ga.Transpose(), gb)
	if out.Trans() || matrix.BitDiff(out.Grid, want) != "" {
		t.Errorf("mixed orientations: view=%v, or wrong result", out.Trans())
	}
	if !view.Trans() || view.Grid != ga {
		t.Errorf("the view input was rewritten: Trans()=%v, grid replaced=%v", view.Trans(), view.Grid != ga)
	}
	if plain.Trans() || plain.Grid != gb {
		t.Errorf("the plain input was rewritten")
	}
}

// An armed task kill surfaces from the cell-wise operator, before it computes
// or charges anything, and is consumed by it.
func TestCellsConsumesTaskFault(t *testing.T) {
	c := chaosCluster(FaultPlan{Events: []FaultEvent{{Stage: 2, Worker: 1, Attempt: 0, Kind: FaultKillTask}}})
	if err := c.BeginStage(context.Background(), 2, 0); err != nil {
		t.Fatal(err)
	}
	g := randGrid(rand.New(rand.NewSource(9)), 6, 6, 3, 1)
	in := []*DistMatrix{NewDistMatrix(g, dep.Row)}
	sqrt := oneLink(matrix.CellLink{Kind: matrix.LinkFunc, UFunc: matrix.FuncAbs})
	_, err := c.Cells(context.Background(), sqrt, in, -1)
	var wf *WorkerFailure
	if !errors.As(err, &wf) || wf.Worker != 1 || wf.Kind != FaultKillTask {
		t.Fatalf("Cells = %v, want worker-1 task kill", err)
	}
	if got := c.Net().Snapshot().FLOPs; got != 0 {
		t.Errorf("failed operator charged %v flops", got)
	}
	if _, err := c.Cells(context.Background(), sqrt, in, -1); err != nil {
		t.Errorf("fault fired twice: %v", err)
	}
}

func TestAggregates(t *testing.T) {
	c := testCluster()
	g := matrix.FromDense(2, 2, 2, []float64{1, 2, 3, 4})
	m := NewDistMatrix(g, dep.Row)
	if got, err := c.Sum(context.Background(), m, 1); err != nil || got != 10 {
		t.Errorf("Sum = %v, %v, want 10", got, err)
	}
	if got, err := c.Norm2(context.Background(), m, 1); err != nil || math.Abs(got-math.Sqrt(30)) > 1e-12 {
		t.Errorf("Norm2 = %v, %v, want sqrt(30)", got, err)
	}
	one := NewDistMatrix(matrix.FromDense(1, 1, 1, []float64{7}), dep.Broadcast)
	v, err := c.Value(context.Background(), one, 1)
	if err != nil || v != 7 {
		t.Errorf("Value = %v, %v", v, err)
	}
	if _, err := c.Value(context.Background(), m, 1); err == nil {
		t.Error("Value on non-1x1 must fail")
	}
	// Each aggregate collected 8 bytes from the one worker holding its
	// operand: m's one block is on worker 0, and a replica needs only one
	// of its receivers.
	s := c.Net().Snapshot()
	if s.CommBytes != 3*8 {
		t.Errorf("aggregate bytes = %d, want %d", s.CommBytes, 3*8)
	}
}

// TestOneWorkerClusterHasNoNetwork: on one worker every matrix is whole on
// that worker — aggregates collect nothing, hash-placed operands combine
// cell-wise and multiply with Local — and a local transpose is charged as on
// any cluster.
func TestOneWorkerClusterHasNoNetwork(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	g := randGrid(rng, 6, 6, 3, 1)
	one := matrix.FromDense(1, 1, 1, []float64{7})
	for _, workers := range []int{1, 2, 4} {
		c := NewCluster(Config{Workers: workers, LocalParallelism: 2})
		m := NewDistMatrix(g, dep.Row)
		if _, err := c.Sum(ctx, m, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Norm2(ctx, m, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Value(ctx, NewDistMatrix(one, dep.Row), 1); err != nil {
			t.Fatal(err)
		}
		// Sum and Norm2 collect from the owners of m's two block-rows,
		// Value from the owner of its one block: 8 B each.
		wantBytes, wantEvents := int64((2+2+1)*8), 3
		if workers == 1 {
			wantBytes, wantEvents = 0, 0
		}
		if s := c.Net().Snapshot(); s.CommBytes != wantBytes || s.CommEvents != wantEvents {
			t.Errorf("%d workers: aggregates charged %d bytes in %d events, want %d in %d",
				workers, s.CommBytes, s.CommEvents, wantBytes, wantEvents)
		}
	}

	add := oneLink(matrix.CellLink{Kind: matrix.LinkBin, BinOp: matrix.OpAdd})
	hash := NewDistMatrix(g, dep.SchemeNone)
	single, pair := NewCluster(Config{Workers: 1}), NewCluster(Config{Workers: 2})
	out, err := single.Cells(context.Background(), add, []*DistMatrix{hash, hash}, -1)
	if err != nil {
		t.Fatalf("hash-placed cell-wise on one worker: %v", err)
	}
	if want, _ := matrix.CellwiseGrid(matrix.OpAdd, g, g); out.Scheme != dep.SchemeNone || matrix.BitDiff(out.Grid, want) != "" {
		t.Errorf("hash-placed cell-wise on one worker: %s, wrong values or scheme", out)
	}
	if _, err := pair.Cells(context.Background(), add, []*DistMatrix{hash, hash}, -1); err == nil {
		t.Error("hash-placed cell-wise on two workers must fail")
	}

	prod, err := single.Multiply(ctx, hash, single.Transpose(context.Background(), hash), Local, dep.SchemeNone, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := matrix.MulGrid(g, g.Transpose()); prod.Scheme != dep.SchemeNone || !matrix.GridEqual(prod.Grid, want, 1e-12) {
		t.Errorf("Local product %s differs from the serial one", prod)
	}
	if _, err := single.Multiply(ctx, hash, NewDistMatrix(g, dep.Row), Local, dep.SchemeNone, 1); err == nil {
		t.Error("Local multiplication of a row-partitioned operand must fail")
	}
	if _, err := pair.Multiply(ctx, hash, hash, Local, dep.SchemeNone, 1); err == nil {
		t.Error("Local multiplication on two workers must fail")
	}
	if s := single.Net().Snapshot(); s.CommBytes != 0 || s.CommEvents != 0 {
		t.Errorf("one worker moved %d bytes in %d events", s.CommBytes, s.CommEvents)
	}

	// The transpose that folds a transposed assignment back into the session
	// costs a Local engine what it costs DMac's cluster.
	four := NewCluster(Config{Workers: 4})
	before1, before4 := single.Net().Snapshot().FLOPs, four.Net().Snapshot().FLOPs
	single.Transpose(context.Background(), hash)
	four.Transpose(context.Background(), NewDistMatrix(g, dep.Row))
	d1, d4 := single.Net().Snapshot().FLOPs-before1, four.Net().Snapshot().FLOPs-before4
	if want := cost.TransposeFLOPs(float64(g.NNZ())); d1 != want || d4 != want {
		t.Errorf("transpose charged %v FLOPs on one worker, %v on four, want %v", d1, d4, want)
	}
}

// modelSec prices a cluster's accumulated statistics the way the engine
// prices a run.
func modelSec(c *Cluster) float64 {
	cfg, s := c.Config(), c.Net().Snapshot()
	return cfg.Rates.ComputeSec(s.FLOPs, cfg.Workers*cfg.LocalParallelism, cfg.MaxSlowdown()) +
		cfg.Rates.NetworkSec(s.CommBytes, s.CommEvents) + s.StallSec
}

func TestModelTime(t *testing.T) {
	c := NewCluster(Config{
		Workers:          4,
		LocalParallelism: 2,
		Rates:            cost.Rates{BandwidthBytesPerSec: 1000, ShuffleLatencySec: 0.5, FlopsPerSecPerThread: 100},
	})
	c.Net().Add(Snapshot{CommBytes: 2000, CommEvents: 1, Shuffles: 1}) // 2 s transfer + 0.5 s latency
	c.Net().Add(Snapshot{FLOPs: 1600})                                 // 1600 / (4*2*100) = 2 s
	want := 2.0 + 0.5 + 2.0
	if got := modelSec(c); math.Abs(got-want) > 1e-9 {
		t.Errorf("model time = %v, want %v", got, want)
	}
}

func TestStragglerInjection(t *testing.T) {
	base := Config{
		Workers:          4,
		LocalParallelism: 2,
		Rates:            cost.Rates{BandwidthBytesPerSec: 1000, ShuffleLatencySec: 0.5, FlopsPerSecPerThread: 100},
	}
	if got := base.withDefaults().MaxSlowdown(); got != 1 {
		t.Errorf("no stragglers: slowdown = %v", got)
	}
	slow := base
	slow.Stragglers = map[int]float64{2: 3}
	c0 := NewCluster(base)
	c1 := NewCluster(slow)
	for _, c := range []*Cluster{c0, c1} {
		c.Net().Add(Snapshot{FLOPs: 1600}) // 2 s at full speed
		c.Net().Add(Snapshot{CommBytes: 2000, CommEvents: 1, Shuffles: 1})
	}
	// Compute triples; network is unaffected.
	want := 3*2.0 + 2.0 + 0.5
	if got := modelSec(c1); math.Abs(got-want) > 1e-9 {
		t.Errorf("straggler model time = %v, want %v", got, want)
	}
	if got := modelSec(c0); math.Abs(got-(2.0+2.5)) > 1e-9 {
		t.Errorf("baseline model time = %v", got)
	}
	// Out-of-range worker indices and sub-1 factors are ignored.
	odd := base
	odd.Stragglers = map[int]float64{99: 5, 1: 0.5}
	if got := odd.MaxSlowdown(); got != 1 {
		t.Errorf("invalid stragglers should be ignored, got %v", got)
	}
}

func TestNetStatsResetAndString(t *testing.T) {
	n := &NetStats{}
	n.Add(Snapshot{CommBytes: 100, CommEvents: 1, Shuffles: 1})
	first := n.Snapshot()
	n.Add(Snapshot{CommBytes: 50, CommEvents: 1, Shuffles: 1})
	n.Add(Snapshot{FLOPs: 10})
	s := n.Snapshot()
	if s.CommBytes != 150 || s.CommEvents != 2 || s.FLOPs != 10 {
		t.Errorf("snapshot = %+v", s)
	}
	if first.CommBytes != 100 || s.CommBytes-first.CommBytes != 50 {
		t.Errorf("bytes %d then %d, want 100 then 150", first.CommBytes, s.CommBytes)
	}
	if n.String() == "" {
		t.Error("empty String")
	}
	n.Reset()
	if s := n.Snapshot(); s.CommBytes != 0 || s.CommEvents != 0 || s.FLOPs != 0 {
		t.Errorf("after reset: %+v", s)
	}
}

func TestMulFLOPsEstimates(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	dense := randGrid(rng, 10, 10, 5, 1)
	sparse := randGrid(rng, 10, 10, 5, 0.1)
	// What Multiply charges for a product, read back from the cluster's books.
	mulFLOPs := func(a, b *matrix.Grid) float64 {
		c := testCluster()
		if _, err := c.Multiply(context.Background(), NewDistMatrix(a, dep.Row), NewDistMatrix(b, dep.Broadcast), RMM2, dep.Row, 1); err != nil {
			t.Fatal(err)
		}
		return c.Net().Snapshot().FLOPs
	}
	dd := mulFLOPs(dense, dense)
	if want := 2.0 * 100 * 10; math.Abs(dd-want) > 1 {
		t.Errorf("dense-dense FLOPs = %v, want %v", dd, want)
	}
	sd := mulFLOPs(sparse, dense)
	if sd >= dd {
		t.Errorf("sparse-dense FLOPs %v should be below dense-dense %v", sd, dd)
	}
	if mulFLOPs(sparse, sparse) <= 0 && sparse.NNZ() > 0 {
		t.Error("sparse-sparse FLOPs should be positive")
	}
}

func TestOwnerAndLoadImbalance(t *testing.T) {
	c := testCluster() // 4 workers
	// Uniform dense grid, Row placement: perfectly balanced when the block
	// rows divide evenly among workers.
	g := matrix.NewDenseGrid(32, 8, 4) // 8 block rows over 4 workers
	m := NewDistMatrix(g, dep.Row)
	if got := c.LoadImbalance(m); math.Abs(got-1) > 1e-12 {
		t.Errorf("uniform row imbalance = %v, want 1", got)
	}
	if c.Owner(m, 5, 0) != 1 {
		t.Errorf("owner of block row 5 = %d, want 1", c.Owner(m, 5, 0))
	}
	// Skewed: all mass in one block row.
	var coords []matrix.Coord
	for j := 0; j < 8; j++ {
		for i := 0; i < 4; i++ {
			coords = append(coords, matrix.Coord{Row: i, Col: j, Val: 1})
		}
	}
	sk := NewDistMatrix(matrix.FromCoords(32, 8, 4, coords), dep.Row)
	if got := c.LoadImbalance(sk); got <= 1.5 {
		t.Errorf("skewed imbalance = %v, want > 1.5", got)
	}
	// Broadcast is balanced by definition.
	if got := c.LoadImbalance(NewDistMatrix(g, dep.Broadcast)); got != 1 {
		t.Errorf("broadcast imbalance = %v", got)
	}
	// Col placement keys on block columns.
	mc := NewDistMatrix(g, dep.Col)
	if c.Owner(mc, 0, 1) != 1 || c.Owner(mc, 3, 0) != 0 {
		t.Error("column owners wrong")
	}
	// Hash placement spreads by both coordinates.
	mh := NewDistMatrix(g, dep.SchemeNone)
	if got := c.LoadImbalance(mh); got < 1 {
		t.Errorf("hash imbalance = %v", got)
	}
	// Empty matrix does not divide by zero.
	empty := NewDistMatrix(matrix.FromCoords(4, 4, 2, nil), dep.Row)
	if got := c.LoadImbalance(empty); got < 0.9 {
		t.Errorf("empty imbalance = %v", got)
	}
}

func TestDistMatrixString(t *testing.T) {
	m := NewDistMatrix(matrix.NewDenseGrid(3, 4, 2), dep.Row)
	if m.String() != "3x4(r)" {
		t.Errorf("String = %q", m.String())
	}
}

// applyGrid applies f to every block of g.
func applyGrid(f matrix.UFunc, g *matrix.Grid) *matrix.Grid {
	out := matrix.NewGridSlots(g.Rows(), g.Cols(), g.BlockSize())
	for bi := 0; bi < g.BlockRows(); bi++ {
		for bj := 0; bj < g.BlockCols(); bj++ {
			out.SetBlock(bi, bj, matrix.ApplyBlock(f, g.Block(bi, bj)))
		}
	}
	return out.Filled()
}
