package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"dmac/internal/cost"
	"dmac/internal/matrix"
)

// Kernel microbenchmarks: single-block multiplication throughput for every
// local kernel path, and the dense kernel's speedup over kernel worker
// counts. The emitted BENCH_kernels.json is the repository's kernel perf
// trajectory — later PRs regenerate it and diff the numbers.

// KernelPoint is one (kernel, block size) measurement.
type KernelPoint struct {
	// Kernel names the measured path: dd-tiled, dd-nt / dd-tn (fused
	// transpose GEMM), sd / ds (square sparse-dense at ~5% density),
	// ds-tn / sd-nt / ds-rowvec (the thin
	// sparse-dense shapes that run: GNMF's W^T V and V H^T at k = 64 and
	// PageRank's rank vector, at 1% density), ds-rowvec-hyper (the rank
	// vector against each block of a block row of a partitioned graph in
	// turn: hyperBlocks products an op, ~1.25 stored entries a column),
	// ss-tn (sparse A^T B at ~5%: one Size-sided block product) and
	// ss-tn-b32 (the same product cut into 32-wide blocks, as the server's
	// gram job runs it: (Size/32)^3 block products an op), csc-build
	// (matrix.FromCoords over a Size-node graph of 8 edges a node in 32-wide
	// blocks; GFLOPS holds 1e9 coordinates/s), dd-par (tiled kernel at
	// Workers kernel workers). Two dense points have a fixed shape and appear
	// once a report, whatever sizes it covers: dd-thin (GNMF's H*H^T on
	// Netflix/10, thinRank x thinDepth times its own transpose: one
	// thinRank-sided result block, at Workers kernel workers) and dd-ragged
	// (a raggedSide cube: one row and one column past the register tiles).
	Kernel string `json:"kernel"`
	// Size is the square block side; the thin shapes are Size-sided in
	// their long dimensions, and ss-tn-b32 and csc-build cut a Size-sided
	// matrix into blocks. thinDepth for dd-thin, raggedSide for dd-ragged.
	Size int `json:"size"`
	// Workers is the kernel worker count of a dd-par or dd-thin point; zero
	// elsewhere (those paths are measured at one worker).
	Workers int `json:"workers,omitempty"`
	// Reps is the number of timed repetitions.
	Reps int `json:"reps"`
	// NsPerOp is the mean wall time of one block multiplication.
	NsPerOp float64 `json:"ns_per_op"`
	// GFLOPS is the achieved throughput (effective flops for sparse paths:
	// two per multiply-add the stored entries call for).
	GFLOPS float64 `json:"gflops"`
	// Speedup is set on the worker curves only: the one-worker dd-tiled
	// point's NsPerOp over this dd-par point's at the same size, and the
	// one-worker dd-thin measurement's over this dd-thin point's.
	Speedup float64 `json:"speedup,omitempty"`
}

// KernelReport is the full microbenchmark output.
type KernelReport struct {
	GoOS   string `json:"goos"`
	GoArch string `json:"goarch"`
	NumCPU int    `json:"num_cpu"`
	// GemmKernel is the dense micro-kernel the matrix package selected on
	// this CPU (matrix.GemmKernel): every dd-* point ran through it.
	GemmKernel string `json:"gemm_kernel"`
	// KernelVersion is the kernels' arithmetic generation
	// (matrix.KernelVersion): points of two versions time different
	// arithmetic.
	KernelVersion int           `json:"kernel_version"`
	Points        []KernelPoint `json:"points"`
}

// kernelSparsity is the density of the sparse operands in the sd/ds paths.
const kernelSparsity = 0.05

// The thin sparse-dense points take the shape of the products the paper's
// workloads run (the same cases as matrix's BenchmarkMulAddDSTN/SDNT/
// DSRowVec): a thinRank-row dense factor, or a single row vector, against a
// square CSC block at thinSparsity.
const (
	thinRank     = 64
	thinSparsity = 0.01
)

// The fixed-shape dense points (the same cases as matrix's
// BenchmarkMulAddDDThin and BenchmarkMulAddDDRagged): thinDepth is the block
// size sched.ChooseBlockSize gives the gnmf workload.
const (
	thinDepth  = 1632
	raggedSide = 513
)

// The hypersparse points take the shapes a block partition leaves (the same
// cases as matrix's BenchmarkNewCSC/FromCoords and the serve_mix and
// pagerank_wire workloads): hyperPerCol stored entries a column is an
// 8-edges-a-node graph cut 6 x 6, and serveBlock is dmacserve's block size.
// A PageRank step walks every block of the graph once, so the row-vector
// point walks hyperBlocks distinct blocks an op: one block repeated would
// let the branch predictor learn its column lengths, which a run never can.
const (
	hyperPerCol = 1.25
	hyperBlocks = 8
	graphDegree = 8
	serveBlock  = 32
)

// randDense returns a deterministic random rows x cols dense block.
func randDense(rng *rand.Rand, rows, cols int) *matrix.DenseBlock {
	d := matrix.NewDense(rows, cols)
	for i := range d.Data {
		d.Data[i] = rng.Float64()*2 - 1
	}
	return d
}

// randSparse returns a deterministic random n x n CSC block at the given
// density.
func randSparse(rng *rand.Rand, n int, density float64) *matrix.CSCBlock {
	nnz := max(1, int(density*float64(n)*float64(n)))
	coords := make([]matrix.Coord, 0, nnz)
	for k := 0; k < nnz; k++ {
		coords = append(coords, matrix.Coord{
			Row: rng.Intn(n), Col: rng.Intn(n), Val: rng.Float64()*2 - 1,
		})
	}
	return matrix.NewCSC(n, n, coords)
}

// ssTNMulAdds counts the multiply-adds of a^T * b: every pair of stored
// entries that share a row.
func ssTNMulAdds(a, b *matrix.CSCBlock) float64 {
	perRow := make([]int, a.Rows())
	for _, r := range a.RowIdx {
		perRow[r]++
	}
	n := 0
	for _, r := range b.RowIdx {
		n += perRow[r]
	}
	return float64(n)
}

// gramBlocked returns dst += a^T * b as the engine runs it on grids: one
// block product per (result block, inner block) triple.
func gramBlocked(dst, a, b *matrix.Grid) func() {
	return func() {
		for i := 0; i < dst.BlockRows(); i++ {
			for j := 0; j < dst.BlockCols(); j++ {
				d := dst.Block(i, j).(*matrix.DenseBlock)
				d.Zero()
				for k := 0; k < a.BlockRows(); k++ {
					if err := matrix.MulAddTransInto(d, a.Block(k, i), b.Block(k, j), true, false); err != nil {
						panic(err)
					}
				}
			}
		}
	}
}

// graphCoords lists graphDegree random out-edges for each of n nodes.
func graphCoords(rng *rand.Rand, n int) []matrix.Coord {
	coords := make([]matrix.Coord, 0, n*graphDegree)
	for i := 0; i < n; i++ {
		for k := 0; k < graphDegree; k++ {
			coords = append(coords, matrix.Coord{Row: i, Col: rng.Intn(n), Val: 1})
		}
	}
	return coords
}

// measure times f adaptively: repetitions are scaled so each measurement
// takes roughly 150 ms of wall time, bounded to [3, 1000] reps. The
// reported figure is the *minimum* repetition, not the mean: scheduler and
// frequency noise is strictly additive, and at block sizes where only a few
// repetitions fit the budget a single preempted rep would otherwise skew
// the point by tens of percent.
func measure(f func()) (nsPerOp float64, reps int) {
	f() // warm-up: page in operands, populate the GEMM buffer pool
	t0 := time.Now()
	f()
	per := time.Since(t0)
	if per <= 0 {
		per = time.Nanosecond
	}
	n := int(150 * time.Millisecond / per)
	if n < 3 {
		n = 3
	}
	if n > 1000 {
		n = 1000
	}
	best := time.Duration(math.MaxInt64)
	for i := 0; i < n; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	if best <= 0 {
		best = time.Nanosecond
	}
	return float64(best.Nanoseconds()), n
}

// Kernels runs the kernel microbenchmark suite over the given square block
// sizes and returns the report. The single-path kernels are measured at one
// kernel worker; every count in workerCounts adds a dd-par point per size
// (the multi-core speedup curve). A nil workerCounts measures the worker
// curve at 1 only.
func Kernels(sizes []int, workerCounts []int) *KernelReport {
	if len(workerCounts) == 0 {
		workerCounts = []int{1}
	}
	defer matrix.SetKernelWorkers(matrix.SetKernelWorkers(1))
	rep := &KernelReport{GoOS: runtime.GOOS, GoArch: runtime.GOARCH, NumCPU: runtime.NumCPU(), GemmKernel: matrix.GemmKernel(), KernelVersion: matrix.KernelVersion}
	mulTransInto := func(dst *matrix.DenseBlock, x, y matrix.Block, xT, yT bool) func() {
		return func() {
			dst.Zero()
			if err := matrix.MulAddTransInto(dst, x, y, xT, yT); err != nil {
				panic(err)
			}
		}
	}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(n)))
		a := randDense(rng, n, n)
		b := randDense(rng, n, n)
		sa := randSparse(rng, n, kernelSparsity)
		sb := randSparse(rng, n, kernelSparsity)
		thin := randSparse(rng, n, thinSparsity)
		w := randDense(rng, n, thinRank) // read transposed: W^T is thinRank x n
		h := randDense(rng, thinRank, n) // read transposed: H^T is n x thinRank
		rank := randDense(rng, 1, n)
		edges := graphCoords(rng, n)
		dst := matrix.NewDense(n, n)
		ssFLOPs := 2 * ssTNMulAdds(sa, sb)
		denseFLOPs := cost.DenseMulFLOPs(n, n, n)
		sparseFLOPs := 2 * float64(sa.NNZ()) * float64(n)
		thinFLOPs := 2 * float64(thin.NNZ()) * thinRank
		mulTrans := func(x, y matrix.Block, xT, yT bool) func() {
			return mulTransInto(dst, x, y, xT, yT)
		}
		var hyperProducts []func()
		hyperNNZ := 0
		for i := 0; i < hyperBlocks; i++ {
			blk := randSparse(rng, n, hyperPerCol/float64(n))
			hyperProducts = append(hyperProducts, mulTransInto(matrix.NewDense(1, n), rank, blk, false, false))
			hyperNNZ += blk.NNZ()
		}
		runs := []struct {
			kernel string
			flops  float64
			f      func()
		}{
			{"dd-tiled", denseFLOPs, mulTrans(a, b, false, false)},
			{"dd-nt", denseFLOPs, mulTrans(a, b, false, true)},
			{"dd-tn", denseFLOPs, mulTrans(a, b, true, false)},
			{"sd", sparseFLOPs, mulTrans(sa, b, false, false)},
			{"ds", 2 * float64(sb.NNZ()) * float64(n), mulTrans(a, sb, false, false)},
			{"ds-tn", thinFLOPs, mulTransInto(matrix.NewDense(thinRank, n), w, thin, true, false)},
			{"sd-nt", thinFLOPs, mulTransInto(matrix.NewDense(n, thinRank), thin, h, false, true)},
			{"ds-rowvec", 2 * float64(thin.NNZ()), mulTransInto(matrix.NewDense(1, n), rank, thin, false, false)},
			{"ds-rowvec-hyper", 2 * float64(hyperNNZ), func() {
				for _, product := range hyperProducts {
					product()
				}
			}},
			{"ss-tn", ssFLOPs, mulTrans(sa, sb, true, false)},
			{"ss-tn-b32", ssFLOPs, gramBlocked(matrix.NewDenseGrid(n, n, serveBlock),
				matrix.FromCoords(n, n, serveBlock, sa.Coords()), matrix.FromCoords(n, n, serveBlock, sb.Coords()))},
			{"csc-build", float64(len(edges)), func() { matrix.FromCoords(n, n, serveBlock, edges) }},
		}
		var tiledNs float64
		for _, r := range runs {
			ns, reps := measure(r.f)
			if r.kernel == "dd-tiled" {
				tiledNs = ns
			}
			rep.Points = append(rep.Points, KernelPoint{
				Kernel:  r.kernel,
				Size:    n,
				Reps:    reps,
				NsPerOp: ns,
				GFLOPS:  r.flops / ns,
			})
		}
		// Worker curve: the same tiled multiply at each kernel worker count,
		// speedup against the one-worker dd-tiled measurement above.
		for _, wk := range workerCounts {
			matrix.SetKernelWorkers(wk)
			ns, reps := measure(mulTrans(a, b, false, false))
			matrix.SetKernelWorkers(1)
			rep.Points = append(rep.Points, KernelPoint{
				Kernel:  "dd-par",
				Size:    n,
				Workers: wk,
				Reps:    reps,
				NsPerOp: ns,
				GFLOPS:  denseFLOPs / ns,
				Speedup: tiledNs / ns,
			})
		}
	}
	// The fixed-shape dense points.
	rng := rand.New(rand.NewSource(thinDepth))
	h := randDense(rng, thinRank, thinDepth)
	thinProduct := mulTransInto(matrix.NewDense(thinRank, thinRank), h, h, false, true)
	thinOneNs, _ := measure(thinProduct) // the worker curve's base
	for _, wk := range workerCounts {
		matrix.SetKernelWorkers(wk)
		ns, reps := measure(thinProduct)
		matrix.SetKernelWorkers(1)
		rep.Points = append(rep.Points, KernelPoint{
			Kernel: "dd-thin", Size: thinDepth, Workers: wk, Reps: reps, NsPerOp: ns,
			GFLOPS:  2 * thinRank * thinRank * thinDepth / ns,
			Speedup: thinOneNs / ns,
		})
	}
	ra, rb := randDense(rng, raggedSide, raggedSide), randDense(rng, raggedSide, raggedSide)
	ns, reps := measure(mulTransInto(matrix.NewDense(raggedSide, raggedSide), ra, rb, false, false))
	rep.Points = append(rep.Points, KernelPoint{
		Kernel: "dd-ragged", Size: raggedSide, Reps: reps, NsPerOp: ns,
		GFLOPS: 2 * raggedSide * raggedSide * raggedSide / ns,
	})
	return rep
}

// WriteKernels renders the report as an aligned text table.
func WriteKernels(w io.Writer, r *KernelReport) {
	fmt.Fprintf(w, "Kernel microbenchmarks (%s/%s, %d CPU, GEMM micro-kernel %s, kernel version %d)\n", r.GoOS, r.GoArch, r.NumCPU, r.GemmKernel, r.KernelVersion)
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		speedup := "-"
		if p.Speedup > 0 {
			speedup = fmt.Sprintf("%.2fx", p.Speedup)
		}
		workers := "-"
		if p.Workers > 0 {
			workers = fmt.Sprintf("%d", p.Workers)
		}
		rows = append(rows, []string{
			p.Kernel,
			fmt.Sprintf("%d", p.Size),
			workers,
			fmt.Sprintf("%.0f", p.NsPerOp),
			fmt.Sprintf("%.2f", p.GFLOPS),
			speedup,
			fmt.Sprintf("%d", p.Reps),
		})
	}
	writeTable(w, []string{"kernel", "size", "workers", "ns/op", "GFLOPS", "speedup", "reps"}, rows)
}

// WriteJSON writes the report as indented JSON (the BENCH_kernels.json
// artifact format).
func (r *KernelReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
