package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// flushPayloads are the bit patterns TestFlushSubnormals puts in every lane:
// the smallest normal and its predecessor (the largest subnormal), the
// smallest subnormal, zeros and infinities, each with both signs, and NaNs
// with payloads, a signalling one among them.
var flushPayloads = []float64{
	0x1p-1022, -0x1p-1022,
	math.Float64frombits(0x000fffffffffffff), math.Float64frombits(0x800fffffffffffff),
	5e-324, -5e-324,
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000abcdef),
	math.Float64frombits(0x7ff4000000000002), math.Float64frombits(0xfff0000000000001),
}

// flushed is the result rule for one element, bit for bit: a subnormal
// becomes the zero of its sign, every other pattern stays.
func flushed(v float64) uint64 {
	b := math.Float64bits(v)
	if b&0x7ff0000000000000 == 0 {
		return b & (1 << 63)
	}
	return b
}

// checkFlush runs FlushSubnormals over a copy of x at the current feature
// level and holds every element and the count to flushed.
func checkFlush(t *testing.T, x []float64) {
	t.Helper()
	got := slices.Clone(x)
	n := FlushSubnormals(got)
	want := 0
	for i, v := range x {
		if flushed(v) != math.Float64bits(v) {
			want++
		}
		if math.Float64bits(got[i]) != flushed(v) {
			t.Fatalf("cpu=%+v len %d: element %d is %#x, flushed from %#x want %#x",
				cpu, len(x), i, math.Float64bits(got[i]), math.Float64bits(v), flushed(v))
		}
	}
	if n != want {
		t.Fatalf("cpu=%+v len %d: FlushSubnormals counted %d, want %d", cpu, len(x), n, want)
	}
}

// TestFlushSubnormals holds FlushSubnormals to the rule at every feature
// level (featureLevels): every length from 0 to 17 and 1,023 to 1,025 (the
// vector pass's groups of 8 and 32 and the Go tail) over normal values and
// over normals mixed with flushPayloads, then each of flushPayloads in every
// lane of a middle group of eight — one value among normals, and the whole
// group of it — and all of them mixed over a long vector.
func TestFlushSubnormals(t *testing.T) {
	defer func(f cpuFeatures) { cpu = f }(cpu)
	rng := rand.New(rand.NewSource(43))
	lengths := []int{1023, 1024, 1025}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	draw := func(n int, payloads bool) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			if payloads && rng.Intn(2) == 0 {
				x[i] = flushPayloads[rng.Intn(len(flushPayloads))]
			}
		}
		return x
	}
	mixed := draw(4099, true)
	for _, f := range featureLevels() {
		cpu = f
		for _, n := range lengths {
			checkFlush(t, draw(n, false))
			checkFlush(t, draw(n, true))
		}
		for _, v := range flushPayloads {
			for lane := 0; lane < 8; lane++ {
				x := draw(41, false) // groups at 0, 8, 16, 24 (one 32-group), then 32 and a tail
				x[16+lane] = v
				checkFlush(t, x)
				for i := 16; i < 24; i++ {
					x[i] = v
				}
				checkFlush(t, x)
				checkFlush(t, x[8:]) // the same group in the 8-wide loop
			}
		}
		checkFlush(t, mixed)
	}
}

// FuzzFlushSubnormals places the float64 of the fuzzed bits at cell lane%41
// of normals — a 32-cell group, an 8-cell group and a tail — and holds the
// AVX-512 pass to the Go loop there, bit for bit and count for count.
func FuzzFlushSubnormals(f *testing.F) {
	for i, v := range flushPayloads {
		f.Add(math.Float64bits(v), uint8(i*3))
	}
	defer func(c cpuFeatures) { cpu = c }(cpu)
	levels := featureLevels()
	f.Fuzz(func(t *testing.T, bits uint64, lane uint8) {
		rng := rand.New(rand.NewSource(int64(bits)))
		x := make([]float64, 41)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		x[int(lane)%len(x)] = math.Float64frombits(bits)
		cpu = levels[0]
		want := slices.Clone(x)
		wantN := FlushSubnormals(want)
		for _, level := range levels[1:] {
			cpu = level
			got := slices.Clone(x)
			if n := FlushSubnormals(got); n != wantN || bitDiff(NewDenseData(1, len(got), got), NewDenseData(1, len(want), want)) != "" {
				t.Fatalf("cpu=%+v bits %#x at %d: %d flushed, Go loop %d; got %x, Go loop %x",
					level, bits, int(lane)%len(x), n, wantN, got, want)
			}
		}
		checkFlush(t, x)
	})
}

// TestEvalResultFlushesEveryLink holds EvalResult to the block kernels
// composed link by link with every link's value flushed (flushBlock), at
// every feature level: the result's bits and kind, the counts, the number
// flushed, and inputs left as they were. The trees mix every operator with
// scalars that push values across the subnormal range (2⁻¹⁰⁰⁰, 2⁶⁰) and
// infinity, over dense inputs carrying cellPayloads and sparse ones, so
// interior links produce subnormals that a later link would otherwise turn
// into a normal or a NaN.
func TestEvalResultFlushesEveryLink(t *testing.T) {
	defer func(c cpuFeatures) { cpu = c }(cpu)
	levels := featureLevels()
	shapes := [][2]int{{1, 1}, {3, 7}, {1, cellChunk + 9}, {33, 40}, {0, 4}}
	consts := []float64{0x1p-1000, 0x1p-60, 0x1p60, 1, -2.5, math.Inf(1), 0}
	flushes := 0
	for seed := int64(0); seed < 200; seed++ {
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
				l.Kind, l.ScalarOp, l.Const = LinkScalar, ScalarOp(rng.Intn(6)), consts[rng.Intn(len(consts))]
			default:
				l.Kind, l.UFunc = LinkFunc, UFunc(rng.Intn(6))
			}
			tree.Links = append(tree.Links, l)
			return CellValue(len(tree.Links) - 1)
		}
		for !grow(1 + rng.Intn(5)).Link {
			tree.Inputs = 0
		}
		shape := shapes[rng.Intn(len(shapes))]
		orig := make([]Block, tree.Inputs)
		var dense []int
		for i := range orig {
			if rng.Intn(4) == 0 {
				s := randSparse(rng, shape[0], shape[1], 0.3)
				for k := range s.Values {
					s.Values[k] *= 0x1p-1000
				}
				orig[i] = s
				continue
			}
			d := randDense(rng, shape[0], shape[1])
			for k := range d.Data {
				d.Data[k] *= 0x1p-1000
				if rng.Intn(3) == 0 {
					d.Data[k] = cellPayloads[rng.Intn(len(cellPayloads))]
				}
			}
			orig[i] = d
			dense = append(dense, i)
		}
		into := -1
		if len(dense) > 0 && rng.Intn(2) == 0 {
			into = dense[rng.Intn(len(dense))]
		}
		for _, level := range levels {
			cpu = level
			label := fmt.Sprintf("seed %d cpu=%+v %s", seed, level, tree.Format(func(i int) string { return fmt.Sprint("m", i) }))
			ins := make([]Block, len(orig))
			for i, b := range orig {
				ins[i] = b.Clone()
			}
			// The reference: every link a block kernel, every value flushed.
			vals := make([]Block, len(tree.Links))
			arg := func(a CellArg) Block {
				if a.Link {
					return vals[a.Idx]
				}
				return ins[a.Idx]
			}
			wantNNZ := make([]int64, len(tree.Links)+1)
			var wantFlushed int64
			for j, l := range tree.Links {
				switch l.Kind {
				case LinkBin:
					vals[j], _ = Cellwise(l.BinOp, arg(l.A), arg(l.B))
				case LinkScalar:
					wantNNZ[j] = int64(arg(l.A).NNZ())
					vals[j] = Scalar(l.ScalarOp, arg(l.A), l.Const)
				default:
					vals[j] = ApplyBlock(l.UFunc, arg(l.A))
				}
				wantFlushed += int64(flushBlock(vals[j]))
			}
			want := vals[len(vals)-1]
			wantNNZ[len(tree.Links)] = int64(want.NNZ())

			var dst *DenseBlock
			if into >= 0 {
				dst = ins[into].(*DenseBlock)
			}
			nnz := make([]int64, len(tree.Links)+1)
			got, n, err := tree.EvalResult(ins, dst, nnz)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got.IsSparse() != want.IsSparse() {
				t.Fatalf("%s: result sparse=%v, link by link %v", label, got.IsSparse(), want.IsSparse())
			}
			if d := bitDiff(got, want); d != "" {
				t.Fatalf("%s: got vs flushed link by link %s", label, d)
			}
			if n != wantFlushed || !slices.Equal(nnz, wantNNZ) {
				t.Fatalf("%s: flushed %d counts %v, link by link %d %v", label, n, nnz, wantFlushed, wantNNZ)
			}
			for i, b := range ins {
				if i != into && bitDiff(b, orig[i]) != "" {
					t.Fatalf("%s: input %d written", label, i)
				}
			}
			flushes += int(n)
		}
	}
	if flushes == 0 {
		t.Fatal("no tree flushed an element: the check is vacuous")
	}
}

// BenchmarkMulAddSubnormalOperands times GNMF's H·Hᵀ at the gnmf_ckpt block
// shape — 30 products (32×408)·(32×408)ᵀ summed into one 32×32 block — on a
// fresh H and on one with 0.4 % of its entries subnormal, as the
// multiplicative update leaves H when nothing flushes it: the microcode
// assists every FMA that reads a subnormal takes, which the executor's result
// rule (FlushSubnormals) keeps out of the engine.
func BenchmarkMulAddSubnormalOperands(b *testing.B) {
	const blocks, k, bs = 30, 32, 408
	for _, share := range []float64{0, 0.004} {
		rng := rand.New(rand.NewSource(7))
		h := make([]*DenseBlock, blocks)
		for i := range h {
			h[i] = NewDense(k, bs)
			for j := range h[i].Data {
				h[i].Data[j] = rng.Float64()
				if rng.Float64() < share {
					h[i].Data[j] = 0x1p-1040 * rng.Float64()
				}
			}
		}
		dst := NewDense(k, k)
		b.Run(fmt.Sprintf("subnormal=%.1f%%", 100*share), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clear(dst.Data)
				for _, hk := range h {
					if err := MulAddTransInto(dst, hk, hk, false, true); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
