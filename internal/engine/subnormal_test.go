package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dmac/internal/core"
	"dmac/internal/matrix"
	"dmac/internal/obs"
	"dmac/internal/rewrite"
	"dmac/internal/workload"
)

// subnormalIn returns the index of the first subnormal element stored in b,
// or -1.
func subnormalIn(b matrix.Block) int {
	var vals []float64
	switch b := b.(type) {
	case *matrix.DenseBlock:
		vals = b.Data
	case *matrix.CSCBlock:
		vals = b.Values
	}
	for i, v := range vals {
		if v != 0 && math.Abs(v) < 0x1p-1022 {
			return i
		}
	}
	return -1
}

// checkResultGrid fails the test if a block of g stores a subnormal or if g's
// stored-element count (seeded by the task that wrote it, for a cell-wise
// result) is not a recount of its blocks.
func checkResultGrid(t *testing.T, label string, g *matrix.Grid) {
	t.Helper()
	recount := 0
	for bi := 0; bi < g.BlockRows(); bi++ {
		for bj := 0; bj < g.BlockCols(); bj++ {
			b := g.Block(bi, bj)
			if i := subnormalIn(b); i >= 0 {
				t.Fatalf("%s: block (%d,%d) stores a subnormal at %d", label, bi, bj, i)
			}
			recount += b.NNZ()
		}
	}
	if n := g.NNZ(); n != recount {
		t.Fatalf("%s: NNZ %d, recount %d", label, n, recount)
	}
}

// checkSession runs checkResultGrid over every instance of every session
// variable of e.
func checkSession(t *testing.T, label string, e *Engine) {
	t.Helper()
	for name, vs := range e.vars {
		for scheme, inst := range vs.instances {
			checkResultGrid(t, fmt.Sprintf("%s: %s instance %v", label, name, scheme), inst.Grid)
		}
	}
}

// TestResultBlocksHoldNoSubnormals holds the executor's result rule end to
// end, on DMac and on Local: GNMF with H entries planted near 1e-306, so the
// first update underflows, and random programs fed back into themselves over
// inputs scaled by 2⁻¹⁰⁰⁰ — and by 2⁻⁵¹¹, where the product of two inputs
// lands on the subnormal range. After every run no block of any session
// instance stores a subnormal and every grid's NNZ is a recount; the
// exported results hold none either, and the two engines agree bit for bit.
// Metrics.SubnormalsFlushed and the exec.subnormals.flushed counter show the
// rule at work on the planted GNMF — the same with the rewriter's fused
// update, which gives the same bits — and stay at zero on GNMF with no tiny
// values.
func TestResultBlocksHoldNoSubnormals(t *testing.T) {
	const bs, rows, cols, k = 8, 40, 56, 4
	v := workload.SparseUniform(1, rows, cols, bs, 0.2)
	prog := gnmfProgramDims(rows, cols, k, 0.2)
	type result struct {
		grids   map[string]*matrix.Grid
		flushed int64
		counter int64
	}
	runGNMF := func(planner Planner, planted, fused bool) result {
		label := fmt.Sprintf("gnmf %s planted=%v fused=%v", planner, planted, fused)
		e := New(planner, testConfig(), bs)
		reg := obs.NewRegistry()
		e.SetObserver(nil, reg)
		if fused {
			e.SetRewriter(rewrite.New())
		}
		h := workload.DenseRandom(2, k, cols, bs)
		if planted {
			rng := rand.New(rand.NewSource(3))
			for j := 0; j < cols; j += 3 {
				h.Set(rng.Intn(k), j, 1e-306*(0.5+rng.Float64()))
			}
		}
		for name, g := range map[string]*matrix.Grid{"V": v.Clone(), "W": workload.DenseRandom(1, rows, k, bs), "H": h} {
			if err := e.Bind(name, g); err != nil {
				t.Fatal(err)
			}
		}
		res := result{grids: map[string]*matrix.Grid{}}
		for it := 0; it < 4; it++ {
			m, err := e.Run(prog, nil)
			if err != nil {
				t.Fatalf("%s iteration %d: %v", label, it, err)
			}
			res.flushed += m.SubnormalsFlushed
			checkSession(t, fmt.Sprintf("%s iteration %d", label, it), e)
		}
		res.counter = reg.Counter("exec.subnormals.flushed").Value()
		for _, name := range []string{"W", "H"} {
			g, ok := e.Grid(name)
			if !ok {
				t.Fatalf("%s: %s missing", label, name)
			}
			checkResultGrid(t, label+": export "+name, g)
			res.grids[name] = g
		}
		return res
	}
	for _, planted := range []bool{true, false} {
		ref := runGNMF(Local, planted, false)
		for _, c := range []struct {
			planner Planner
			fused   bool
		}{{DMac, false}, {Local, true}, {DMac, true}} {
			got := runGNMF(c.planner, planted, c.fused)
			label := fmt.Sprintf("gnmf planted=%v %s fused=%v", planted, c.planner, c.fused)
			for name, g := range ref.grids {
				if !sameBits(got.grids[name], g) {
					t.Errorf("%s: %s differs from Local's", label, name)
				}
			}
			if got.flushed != got.counter {
				t.Errorf("%s: Metrics flushed %d, exec.subnormals.flushed %d", label, got.flushed, got.counter)
			}
			if planted != (got.flushed > 0) {
				t.Errorf("%s: %d elements flushed", label, got.flushed)
			}
		}
		if planted != (ref.flushed > 0) || ref.flushed != ref.counter {
			t.Errorf("gnmf planted=%v Local: %d elements flushed, counter %d", planted, ref.flushed, ref.counter)
		}
	}

	// Random programs: every leaf scaled, each program iterating on its own
	// outputs.
	var flushed int64
	for i := 0; i < 60; i++ {
		seed, scale := int64(i/2), []float64{0x1p-1000, 0x1p-511}[i%2]
		rng := rand.New(rand.NewSource(seed + 4300))
		p, _ := core.RandomProgram(rng)
		p = withFeedback(p)
		data := denseLeafData(rng, p, bs)
		for _, g := range data {
			for r := 0; r < g.Rows(); r++ {
				for c := 0; c < g.Cols(); c++ {
					g.Set(r, c, g.At(r, c)*scale)
				}
			}
		}
		exports := map[Planner]map[string]*matrix.Grid{}
		for _, planner := range []Planner{Local, DMac} {
			label := fmt.Sprintf("seed %d scale %g %s", seed, scale, planner)
			e := New(planner, testConfig(), bs)
			for name, g := range data {
				if err := e.Bind(name, g.Clone()); err != nil {
					t.Fatal(err)
				}
			}
			for it := 0; it < 3; it++ {
				m, err := e.Run(p, nil)
				if err != nil {
					t.Fatalf("%s iteration %d: %v", label, it, err)
				}
				if planner == DMac {
					flushed += m.SubnormalsFlushed
				}
				checkSession(t, fmt.Sprintf("%s iteration %d", label, it), e)
			}
			exports[planner] = map[string]*matrix.Grid{}
			for _, a := range p.Assignments() {
				g, ok := e.Grid(a.Name)
				if !ok {
					t.Fatalf("%s: %s missing", label, a.Name)
				}
				checkResultGrid(t, label+": export "+a.Name, g)
				exports[planner][a.Name] = g
			}
		}
		for name, g := range exports[Local] {
			if !sameBits(exports[DMac][name], g) {
				t.Errorf("seed %d scale %g: %s differs between DMac and Local", seed, scale, name)
			}
		}
	}
	if flushed == 0 {
		t.Error("no random program flushed an element: the sweep never reached the subnormal range")
	}
}
