package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// gnmfTree is GNMF's update x * y / z as one tree.
func gnmfTree() *CellTree {
	return &CellTree{Inputs: 3, Links: []CellLink{
		{Kind: LinkBin, BinOp: OpCellMul, A: CellInput(0), B: CellInput(1)},
		{Kind: LinkBin, BinOp: OpCellDiv, A: CellValue(0), B: CellInput(2)},
	}}
}

func TestCellTreeValidate(t *testing.T) {
	if err := gnmfTree().Validate(); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	bin := func(a, b CellArg) CellLink { return CellLink{Kind: LinkBin, A: a, B: b} }
	for name, tree := range map[string]*CellTree{
		"no links":        {Inputs: 1},
		"input range":     {Inputs: 1, Links: []CellLink{bin(CellInput(0), CellInput(1))}},
		"forward link":    {Inputs: 1, Links: []CellLink{bin(CellInput(0), CellValue(0))}},
		"link read twice": {Inputs: 1, Links: []CellLink{bin(CellInput(0), CellInput(0)), bin(CellValue(0), CellValue(0))}},
		"link never read": {Inputs: 1, Links: []CellLink{bin(CellInput(0), CellInput(0)), bin(CellInput(0), CellInput(0))}},
		"unknown kind":    {Inputs: 1, Links: []CellLink{{Kind: 7, A: CellInput(0)}}},
		"unknown ufunc":   {Inputs: 1, Links: []CellLink{{Kind: LinkFunc, UFunc: 99, A: CellInput(0)}}},
	} {
		if err := tree.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCellTreeFormatAndBind(t *testing.T) {
	name := func(i int) string { return []string{"m2", "m3", "m5"}[i] }
	if got := gnmfTree().Format(name); got != "(m2 * m3) / m5" {
		t.Errorf("Format = %q", got)
	}
	pagerank := &CellTree{Inputs: 2, Links: []CellLink{
		{Kind: LinkScalar, ScalarOp: ScalarMul, Const: 0.85, A: CellInput(0)},
		{Kind: LinkScalar, ScalarOp: ScalarMul, Param: "teleport", A: CellInput(1)},
		{Kind: LinkBin, BinOp: OpAdd, A: CellValue(0), B: CellValue(1)},
		{Kind: LinkFunc, UFunc: FuncSqrt, A: CellValue(2)},
		{Kind: LinkFunc, UFunc: FuncAbs, A: CellValue(3)},
	}}
	if got, want := pagerank.Format(name), "abs(sqrt((m2 *c(0.85)) + (m3 *c(teleport))))"; got != want {
		t.Errorf("Format = %q, want %q", got, want)
	}
	if _, err := pagerank.Bind(nil); err == nil || !strings.Contains(err.Error(), `missing parameter "teleport"`) {
		t.Errorf("Bind without the parameter: %v", err)
	}
	bound, err := pagerank.Bind(map[string]float64{"teleport": 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if l := bound.Links[1]; l.Const != 0.15 || l.Param != "" {
		t.Errorf("bound link = %+v", l)
	}
	if pagerank.Links[1].Param != "teleport" {
		t.Error("Bind wrote the tree it was given")
	}
	if same, _ := gnmfTree().Bind(nil); len(same.Links) != 2 {
		t.Error("Bind of a tree without parameters")
	}
}

// TestEvalBlockCounts: the evaluator's counts are Block.NNZ of what a
// link-by-link evaluation materializes, on the dense and the sparse path.
func TestEvalBlockCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tree := &CellTree{Inputs: 2, Links: []CellLink{
		{Kind: LinkBin, BinOp: OpCellMul, A: CellInput(0), B: CellInput(1)},
		{Kind: LinkScalar, ScalarOp: ScalarMul, Const: 2, A: CellValue(0)},
		{Kind: LinkScalar, ScalarOp: ScalarAdd, Const: 0, A: CellInput(1)},
		{Kind: LinkBin, BinOp: OpCellMul, A: CellValue(1), B: CellValue(2)},
	}}
	sa, sb := randSparse(rng, 40, 37, 0.3), randSparse(rng, 40, 37, 0.3)
	for _, ins := range [][]Block{{sa, sb}, {sa.Dense(), sb.Dense()}, {sa, sb.Dense()}} {
		prod, _ := Cellwise(OpCellMul, ins[0], ins[1])
		nnz := make([]int64, 5)
		out, err := tree.EvalBlock(ins, nil, nnz)
		if err != nil {
			t.Fatal(err)
		}
		want := []int64{0, int64(prod.NNZ()), int64(ins[1].NNZ()), 0, int64(out.NNZ())}
		for j := range want {
			if nnz[j] != want[j] {
				t.Errorf("sparse=%v/%v: counts %v, want %v", ins[0].IsSparse(), ins[1].IsSparse(), nnz, want)
				break
			}
		}
		if out.IsSparse() != (ins[0].IsSparse() && ins[1].IsSparse()) {
			t.Errorf("sparse=%v/%v: result sparse=%v", ins[0].IsSparse(), ins[1].IsSparse(), out.IsSparse())
		}
	}
}

// cellPayloads are the values a fused evaluation must carry through exactly
// like a link-by-link one: NaNs with distinct payloads, infinities, signed
// zeros and subnormals.
var cellPayloads = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000abcdef), math.Float64frombits(0x7ff4000000000002),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
	1, -1, math.MaxFloat64,
}

// FuzzFusedCells holds the fused evaluator to the block kernels composed link
// by link, bit for bit and block kind for block kind: random trees of every
// operator over dense, sparse and empty inputs of chunk-crossing and ragged
// shapes carrying the payloads above, evaluated fresh and over one of their
// own dense inputs, at every feature level (featureLevels) — the reference
// runs the operator loops the evaluator does, so each level holds its own.
func FuzzFusedCells(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		f.Add(seed)
	}
	defer func(c cpuFeatures) { cpu = c }(cpu)
	levels := featureLevels()
	shapes := [][2]int{{1, 1}, {3, 7}, {1, cellChunk}, {33, 40}, {5, 411}, {64, 64}, {0, 4}}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		tree := &CellTree{}
		var grow func(depth int) CellArg
		grow = func(depth int) CellArg {
			if depth == 0 || rng.Intn(4) == 0 {
				tree.Inputs++
				return CellInput(tree.Inputs - 1)
			}
			l := CellLink{A: grow(depth - 1)}
			switch rng.Intn(3) {
			case 0:
				l.Kind, l.BinOp, l.B = LinkBin, BinOp(rng.Intn(4)), grow(depth-1)
			case 1:
				l.Kind, l.ScalarOp = LinkScalar, ScalarOp(rng.Intn(6))
				l.Const = []float64{0, 1, -2.5, math.Inf(1), math.NaN(), rng.NormFloat64()}[rng.Intn(6)]
			default:
				l.Kind, l.UFunc = LinkFunc, UFunc(rng.Intn(6))
			}
			tree.Links = append(tree.Links, l)
			return CellValue(len(tree.Links) - 1)
		}
		for !grow(1 + rng.Intn(6)).Link {
			tree.Inputs = 0 // a bare input is not a tree
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("generated tree invalid: %v", err)
		}

		shape := shapes[rng.Intn(len(shapes))]
		rows, cols := shape[0], shape[1]
		ins := make([]Block, tree.Inputs)
		var dense []int
		for i := range ins {
			switch rng.Intn(4) {
			case 0:
				ins[i] = randSparse(rng, rows, cols, 0.3)
			case 1:
				ins[i] = NewCSCEmpty(rows, cols)
			default:
				d := randDense(rng, rows, cols)
				for k := range d.Data {
					if rng.Intn(3) == 0 {
						d.Data[k] = cellPayloads[rng.Intn(len(cellPayloads))]
					}
				}
				ins[i] = d
				dense = append(dense, i)
			}
		}
		into := -1
		if len(dense) > 0 && rng.Intn(2) == 0 {
			into = dense[rng.Intn(len(dense))]
		}
		orig := ins
		for _, level := range levels {
			cpu = level
			ins := make([]Block, len(orig))
			for i, b := range orig {
				ins[i] = b.Clone()
			}
			checkFused(t, tree, ins, into)
		}
	})
}

// checkFused evaluates tree over ins — into input into when that is not -1 —
// and compares the result and the counts with the block kernels composed
// link by link.
func checkFused(t *testing.T, tree *CellTree, ins []Block, into int) {
	rows, cols := ins[0].Rows(), ins[0].Cols()

	// The reference: every link a block kernel, every value a block.
	vals := make([]Block, len(tree.Links))
	arg := func(a CellArg) Block {
		if a.Link {
			return vals[a.Idx]
		}
		return ins[a.Idx]
	}
	wantNNZ := make([]int64, len(tree.Links)+1)
	for j, l := range tree.Links {
		switch l.Kind {
		case LinkBin:
			v, err := Cellwise(l.BinOp, arg(l.A), arg(l.B))
			if err != nil {
				t.Fatal(err)
			}
			vals[j] = v
		case LinkScalar:
			wantNNZ[j] = int64(arg(l.A).NNZ())
			vals[j] = Scalar(l.ScalarOp, arg(l.A), l.Const)
		default:
			vals[j] = ApplyBlock(l.UFunc, arg(l.A))
		}
	}
	want := vals[len(vals)-1]
	wantNNZ[len(tree.Links)] = int64(want.NNZ())

	var dst *DenseBlock
	if into >= 0 {
		dst = ins[into].(*DenseBlock)
	}
	nnz := make([]int64, len(tree.Links)+1)
	got, err := tree.EvalBlock(ins, dst, nnz)
	if err != nil {
		t.Fatal(err)
	}
	describe := func() string {
		return fmt.Sprintf("cpu=%+v ", cpu) + tree.Format(func(i int) string {
			if ins[i].IsSparse() {
				return "s"
			}
			return "d"
		})
	}
	if got.IsSparse() != want.IsSparse() {
		t.Fatalf("%s %dx%d: result sparse=%v, link by link sparse=%v", describe(), rows, cols, got.IsSparse(), want.IsSparse())
	}
	if gs, ok := got.(*CSCBlock); ok {
		ws := want.(*CSCBlock)
		if len(gs.RowIdx) != len(ws.RowIdx) || sameBits(gs.Values, ws.Values) >= 0 {
			t.Fatalf("%s %dx%d: sparse result differs from link by link", describe(), rows, cols)
		}
		for k := range gs.RowIdx {
			if gs.RowIdx[k] != ws.RowIdx[k] {
				t.Fatalf("%s %dx%d: sparse pattern differs from link by link", describe(), rows, cols)
			}
		}
	} else if i := sameBits(got.Dense().Data, want.Dense().Data); i >= 0 {
		t.Fatalf("%s %dx%d in place=%v: cell %d is %x, link by link %x", describe(), rows, cols, dst != nil, i,
			math.Float64bits(got.Dense().Data[i]), math.Float64bits(want.Dense().Data[i]))
	}
	allDense := true
	for _, b := range ins {
		allDense = allDense && !b.IsSparse()
	}
	if dst != nil && allDense != (got == Block(dst)) {
		t.Fatalf("%s: all inputs dense=%v but destination used=%v", describe(), allDense, got == Block(dst))
	}
	for j := range nnz {
		if nnz[j] != wantNNZ[j] {
			t.Fatalf("%s %dx%d: counts %v, link by link %v", describe(), rows, cols, nnz, wantNNZ)
		}
	}
}

// BenchmarkCellTreeGNMF times GNMF's H update (H * WᵀV) / WᵀWH with its
// counts, as Executor.Cells runs it, over one block of each GNMF workload of
// the benchmark ledger — gnmf (64 × 1632) and gnmf_ckpt (32 × 408) — written
// over its last input as the in-place licence has it, at every feature level
// (featureLevels: the Go loops, then the AVX-512 ones).
func BenchmarkCellTreeGNMF(b *testing.B) {
	defer func(c cpuFeatures) { cpu = c }(cpu)
	tree := gnmfTree()
	for _, sh := range []struct {
		name       string
		rows, cols int
	}{{"gnmf", gnmfK, gnmfBlock}, {"gnmf_ckpt", 32, 408}} {
		rng := rand.New(rand.NewSource(int64(sh.cols)))
		ins := []Block{randDense(rng, sh.rows, sh.cols), randDense(rng, sh.rows, sh.cols), randDense(rng, sh.rows, sh.cols)}
		dst := ins[2].(*DenseBlock)
		nnz := make([]int64, len(tree.Links)+1)
		for _, level := range featureLevels() {
			name := "go"
			if level.avx512 {
				name = "avx512"
			} else if level.avx {
				continue // the cell-wise loops have no AVX form
			}
			b.Run(sh.name+"/"+name, func(b *testing.B) {
				cpu = level
				for i := 0; i < b.N; i++ {
					if _, err := tree.EvalBlock(ins, dst, nnz); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(sh.rows*sh.cols)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gcells/s")
			})
		}
	}
}
