package matrix

import (
	"math/rand"
	"testing"
)

// FuzzMulKernels drives the full multiply surface — serial and parallel,
// every transpose combination, dense and sparse operands (square and thin, at
// 30 % and 1 % density and at about one stored entry per block) — from one
// fuzzed seed and checks the serial result against the generic oracle, with
// the GEMM micro-kernel drawn from those the CPU offers. The
// parallel-vs-serial comparison is exact (bit identity is the kernel's
// contract), as is every sparse kernel's against the loop it replaced and the
// drawn micro-kernel's against the pure-Go one.
func FuzzMulKernels(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed)
	}
	// GNMF's thin products at 32 and 64 lanes: W^T*V (dense A transposed,
	// sparse B) at n x m x p = 64x200x64, 64x200x200 and 32x97x33, and V*H^T
	// (sparse A, dense B transposed) at 33x130x64, 65x2x64, 2x200x32 and
	// 2x17x32.
	for _, seed := range []int64{1584, 2823, 1503, 321, 818, 1601, 2565} {
		f.Add(seed)
	}
	dims := []int{1, 2, 3, 17, 31, 33, 64, 65, 97, 130, 200}
	f.Fuzz(func(t *testing.T, seed int64) {
		defer SetKernelWorkers(SetKernelWorkers(1))
		rng := rand.New(rand.NewSource(seed))
		kernels := gemmKernelsFor(cpu)
		defer func(k gemmKernel) { gemmKern = k }(gemmKern)
		gemmKern = kernels[rng.Intn(len(kernels))]
		n := dims[rng.Intn(len(dims))]
		m := dims[rng.Intn(len(dims))]
		p := dims[rng.Intn(len(dims))]
		aT, bT := rng.Intn(2) == 1, rng.Intn(2) == 1
		ar, ac := n, m
		if aT {
			ar, ac = m, n
		}
		br, bc := m, p
		if bT {
			br, bc = p, m
		}
		aSparse, bSparse := rng.Intn(4) == 0, rng.Intn(4) == 0
		if (aSparse || bSparse) && rng.Intn(2) == 0 {
			// Sparse products run thin in practice (a rank vector, a k-wide
			// factor): pin one dimension to a thin size and redo the shapes.
			thin := []int{1, 2, 3, 4, 32, 64}[rng.Intn(6)]
			switch rng.Intn(3) {
			case 0:
				n = thin
			case 1:
				m = thin
			default:
				p = thin
			}
			ar, ac, br, bc = n, m, m, p
			if aT {
				ar, ac = m, n
			}
			if bT {
				br, bc = p, m
			}
		}
		density := []float64{0.3, 0.01, 0}[rng.Intn(3)]
		sparse := func(r, c int) *CSCBlock {
			if density == 0 {
				return randSparse(rng, r, c, 1/float64(r*c)) // one entry per block
			}
			return randSparse(rng, r, c, density)
		}
		var a, b Block
		if aSparse {
			a = sparse(ar, ac)
		} else {
			a = randDense(rng, ar, ac)
		}
		if bSparse {
			b = sparse(br, bc)
		} else {
			b = randDense(rng, br, bc)
		}
		want := refMulTrans(a, b, aT, bT)

		SetKernelWorkers(1)
		serial := NewDense(n, p)
		if err := MulAddTransInto(serial, a, b, aT, bT); err != nil {
			t.Fatalf("serial: %v", err)
		}
		if !near(serial, want, 1e-9) {
			t.Fatalf("serial kernel differs from oracle (%dx%dx%d aT=%v bT=%v)", n, m, p, aT, bT)
		}

		// The sparse kernels are held to the loops they replaced bit for
		// bit, not just to the oracle's tolerance, and the drawn GEMM
		// micro-kernel to the pure-Go one.
		if !aSparse && !bSparse {
			ref := NewDense(n, p)
			withGemmKernel(gemmGoKernel, func() {
				if err := MulAddTransInto(ref, a, b, aT, bT); err != nil {
					t.Fatalf("pure-Go kernel: %v", err)
				}
			})
			if d := bitDiff(serial, ref); d != "" {
				t.Fatalf("micro-kernel %s not bit-identical to the pure-Go one at %s (%dx%dx%d aT=%v bT=%v)", gemmKern.name, d, n, m, p, aT, bT)
			}
		} else {
			ref := NewDense(n, p)
			switch {
			case aSparse && bSparse:
				refMulAddSS(ref, a.(*CSCBlock), b.(*CSCBlock), aT, bT)
			case aSparse:
				refMulAddSD(ref, a.(*CSCBlock), b.(*DenseBlock), aT, bT)
			default:
				refMulAddDS(ref, a.(*DenseBlock), b.(*CSCBlock), aT, bT)
			}
			if d := bitDiff(serial, ref); d != "" {
				t.Fatalf("sparse kernel not bit-identical to its reference loop at %s (%dx%dx%d aT=%v bT=%v aSparse=%v bSparse=%v density=%v)", d, n, m, p, aT, bT, aSparse, bSparse, density)
			}
		}

		SetKernelWorkers(2 + rng.Intn(6))
		par := NewDense(n, p)
		if err := MulAddTransInto(par, a, b, aT, bT); err != nil {
			t.Fatalf("parallel: %v", err)
		}
		if d := bitDiff(par, serial); d != "" {
			t.Fatalf("parallel result not bit-identical to serial at %s (%dx%dx%d aT=%v bT=%v)", d, n, m, p, aT, bT)
		}
	})
}

// FuzzRowVec drives the row-vector product from one byte a stored column:
// byte j%32 is column j's length, so the fuzzer moves the windows of
// rowDotAVX512's groups of eight across its 16-entry boundary and the short
// path's others (seeded: a longest column of rowDotFixedSteps and one more,
// windows of 8 and 9 entries), and seed draws the rows, the values (zeros of
// both signs, infinities and NaN among them), the vector and dst. Every row
// count of the row-dot path, n = 1-4, is held to refMulAddDSRowDot bit for
// bit at every feature level.
func FuzzRowVec(f *testing.F) {
	f.Add([]byte{1, 2, 1, 0, 1, 1, 2, 1, 3}, int64(1))
	f.Add([]byte{2, 2, 2, 2, 2, 2, 2, 2}, int64(2)) // 16 entries: the short path's last
	f.Add([]byte{2, 2, 2, 2, 2, 2, 2, 3}, int64(3)) // 17: the long path's first
	f.Add([]byte{0, 0, 16, 0, 0, 0, 0, 1, 31}, int64(4))
	f.Add([]byte{31, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9}, int64(5))
	f.Add(make([]byte, 17), int64(6))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 1, 1, 0, 2, 1}, int64(7)) // an all-empty group
	f.Add([]byte{6, 5, 4, 0, 1, 0, 0, 0, 9, 7}, int64(8))                   // long columns in a short window
	f.Add([]byte{4, 1, 0, 2, 3, 1, 0, 1}, int64(9))                         // longest column 4: the fixed steps alone
	f.Add([]byte{1, 5, 2, 0, 1, 3, 0, 1}, int64(10))                        // longest 5: the loop after them
	f.Add([]byte{5, 5, 2, 1, 1, 1, 1, 0}, int64(11))                        // longest 5 in a full window
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1}, int64(12))                        // 8 entries: an empty second half
	f.Add([]byte{2, 1, 1, 1, 1, 1, 1, 1}, int64(13))                        // 9: one entry in it
	f.Fuzz(func(t *testing.T, lens []byte, seed int64) {
		if len(lens) == 0 || len(lens) > 4096 {
			return
		}
		defer func(c cpuFeatures) { cpu = c }(cpu)
		rng := rand.New(rand.NewSource(seed))
		cols := make([]int, len(lens))
		for j, l := range lens {
			cols[j] = int(l % 32)
		}
		m := 32 + rng.Intn(40)
		special := rng.Intn(2) == 0
		b := rowVecBlock(rng, m, cols, special)
		for n := 1; n <= dsRowDotMax; n++ {
			a := rowVecDense(rng, n, m, special)
			entry := dstOnEntry(rng, n, len(cols))
			want := entry.Clone().(*DenseBlock)
			refMulAddDSRowDot(want, a, b)
			for _, lv := range featureLevels() {
				cpu = lv
				got := entry.Clone().(*DenseBlock)
				if err := MulAddTransInto(got, a, b, false, false); err != nil {
					t.Fatal(err)
				}
				if d := bitDiff(got, want); d != "" {
					t.Fatalf("%dx%dx%d nnz=%d level %+v: got vs reference %s",
						n, m, len(cols), b.NNZ(), lv, d)
				}
			}
		}
	})
}
