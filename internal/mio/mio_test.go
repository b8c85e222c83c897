package mio

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"dmac/internal/matrix"
	"dmac/internal/workload"
)

func TestMatrixMarketCoordinateRoundTrip(t *testing.T) {
	g := workload.SparseUniform(1, 40, 25, 8, 0.1)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "coordinate real") {
		t.Error("sparse grid should write coordinate format")
	}
	got, err := ReadMatrixMarket(&buf, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.GridEqual(g, got, 0) {
		t.Error("coordinate round trip mismatch")
	}
}

func TestMatrixMarketArrayRoundTrip(t *testing.T) {
	g := workload.DenseRandom(2, 12, 9, 5)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "array real") {
		t.Error("dense grid should write array format")
	}
	got, err := ReadMatrixMarket(&buf, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.GridEqual(g, got, 0) {
		t.Error("array round trip mismatch")
	}
}

func TestMatrixMarketVariants(t *testing.T) {
	// Pattern + symmetric, with comments and blank lines.
	in := `%%MatrixMarket matrix coordinate pattern symmetric
% a comment

3 3 2
2 1
3 3
`
	g, err := ReadMatrixMarket(strings.NewReader(in), 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.At(1, 0) != 1 || g.At(0, 1) != 1 {
		t.Error("symmetric pattern entries not mirrored")
	}
	if g.At(2, 2) != 1 {
		t.Error("diagonal entry lost")
	}
	if g.NNZ() != 3 {
		t.Errorf("nnz = %d, want 3", g.NNZ())
	}
	// Integer field.
	in2 := "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 7\n"
	g2, err := ReadMatrixMarket(strings.NewReader(in2), 2)
	if err != nil {
		t.Fatal(err)
	}
	if g2.At(0, 1) != 7 {
		t.Error("integer entry wrong")
	}
}

func TestMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"not a banner\n",
		"%%MatrixMarket vector coordinate real general\n1 1 0\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 0\n",
		"%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n",
		"%%MatrixMarket matrix coordinate real general\n",
		"%%MatrixMarket matrix coordinate real general\n2 2\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 3.0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 xyz\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3.0\n",
		"%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n",
		"%%MatrixMarket matrix array real general\n2 2\n1 2 3 bad\n",
		"%%MatrixMarket matrix unknown real general\n2 2 1\n",
	}
	for i, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in), 4); err == nil {
			t.Errorf("case %d: expected error for %q", i, in)
		}
	}
}

func TestBinaryRoundTripMixed(t *testing.T) {
	// A grid with both sparse and dense blocks.
	g := workload.SparseUniform(3, 30, 30, 10, 0.05)
	g.SetBlock(1, 1, matrix.NewDenseData(10, 10, func() []float64 {
		d := make([]float64, 100)
		rng := rand.New(rand.NewSource(9))
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		return d
	}()))
	var buf bytes.Buffer
	if err := WriteGrid(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGrid(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.GridEqual(g, got, 0) {
		t.Error("binary round trip mismatch")
	}
	// Representations are preserved exactly.
	if got.Block(0, 0).IsSparse() != g.Block(0, 0).IsSparse() {
		t.Error("sparse block representation lost")
	}
	if got.Block(1, 1).IsSparse() {
		t.Error("dense block representation lost")
	}
	if got.BlockSize() != g.BlockSize() {
		t.Error("block size lost")
	}
}

// TestBinaryRoundTripKeepsCSCStorage: a decoded sparse block is rebuilt by
// matrix.NewCSC from its stored entries, and must come back with the column
// pointers, row indices and values it was written with — encoding the decoded
// grid gives the same bytes, for hypersparse and well-filled blocks alike.
func TestBinaryRoundTripKeepsCSCStorage(t *testing.T) {
	for _, g := range []*matrix.Grid{
		workload.SparseUniform(5, 90, 70, 32, 0.01),
		workload.SparseUniform(6, 90, 70, 32, 0.4),
		workload.RowNormalize(workload.PowerLawGraph(7, 300, 8, 64)),
	} {
		var first, second bytes.Buffer
		if err := WriteGridChecked(&first, g); err != nil {
			t.Fatal(err)
		}
		got, err := ReadGrid(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteGridChecked(&second, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("%dx%d grid: encode(decode(x)) differs from x", g.Rows(), g.Cols())
		}
	}
}

// specialValues are the values a reader must not mistake for corruption: two
// NaN payloads, both infinities and -0.
var specialValues = []float64{
	math.NaN(),
	math.Float64frombits(0xFFF800000000BEEF),
	math.Inf(1),
	math.Inf(-1),
	math.Copysign(0, -1),
}

// TestBinaryRoundTripSpecialValues: dense and CSC blocks holding NaNs,
// infinities and -0 come back bit for bit from both format versions, on the
// host encoder and the portable one.
func TestBinaryRoundTripSpecialValues(t *testing.T) {
	g := matrix.NewGrid(6, 6, 3)
	dense := matrix.NewDense(3, 3)
	copy(dense.Data[2:], specialValues)
	g.SetBlock(0, 0, dense)
	coords := make([]matrix.Coord, len(specialValues))
	for i, v := range specialValues {
		coords[i] = matrix.Coord{Row: i % 3, Col: i / 2, Val: v}
	}
	g.SetBlock(1, 1, matrix.NewCSC(3, 3, coords))
	for _, version := range []struct {
		name  string
		write func(*bytes.Buffer, *matrix.Grid) error
	}{
		{"v1", func(w *bytes.Buffer, g *matrix.Grid) error { return WriteGrid(w, g) }},
		{"v2", func(w *bytes.Buffer, g *matrix.Grid) error { return WriteGridChecked(w, g) }},
	} {
		t.Run(version.name, func(t *testing.T) {
			bothEncoderPaths(t, func(t *testing.T) {
				var buf bytes.Buffer
				if err := version.write(&buf, g); err != nil {
					t.Fatal(err)
				}
				got, err := ReadGrid(&buf)
				if err != nil {
					t.Fatal(err)
				}
				for bi := 0; bi < 2; bi++ {
					for bj := 0; bj < 2; bj++ {
						if err := sameBlockBits(g.Block(bi, bj), got.Block(bi, bj)); err != "" {
							t.Errorf("block (%d,%d): %s", bi, bj, err)
						}
					}
				}
			})
		})
	}
}

// sameBlockBits compares two blocks' representation and stored values bit
// for bit, returning what differs or "".
func sameBlockBits(want, got matrix.Block) string {
	var wv, gv []float64
	switch w := want.(type) {
	case *matrix.DenseBlock:
		g, ok := got.(*matrix.DenseBlock)
		if !ok {
			return "dense block decoded as sparse"
		}
		wv, gv = w.Data, g.Data
	case *matrix.CSCBlock:
		g, ok := got.(*matrix.CSCBlock)
		if !ok {
			return "sparse block decoded as dense"
		}
		if !slices.Equal(w.ColPtr, g.ColPtr) || !slices.Equal(w.RowIdx, g.RowIdx) {
			return fmt.Sprintf("structure %v %v, want %v %v", g.ColPtr, g.RowIdx, w.ColPtr, w.RowIdx)
		}
		wv, gv = w.Values, g.Values
	}
	if len(wv) != len(gv) {
		return fmt.Sprintf("%d values, want %d", len(gv), len(wv))
	}
	for i := range wv {
		if math.Float64bits(wv[i]) != math.Float64bits(gv[i]) {
			return fmt.Sprintf("value %d = %#x, want %#x", i, math.Float64bits(gv[i]), math.Float64bits(wv[i]))
		}
	}
	return ""
}

func TestBinaryErrors(t *testing.T) {
	// Bad magic.
	if _, err := ReadGrid(bytes.NewReader([]byte("XXXX"))); err == nil {
		t.Error("expected magic error")
	}
	// Truncated stream.
	g := workload.SparseUniform(4, 10, 10, 5, 0.2)
	var buf bytes.Buffer
	if err := WriteGrid(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{3, 10, 30, len(full) - 5} {
		if _, err := ReadGrid(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("expected error for truncation at %d", cut)
		}
	}
	// Corrupt version.
	bad := append([]byte(nil), full...)
	bad[4] = 99
	if _, err := ReadGrid(bytes.NewReader(bad)); err == nil {
		t.Error("expected version error")
	}
}

// Property: binary round trip is the identity for random grids.
func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(seed int64, bsRaw uint8, sparse bool) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(20), 1+rng.Intn(20)
		bs := 1 + int(bsRaw)%10
		var g *matrix.Grid
		if sparse {
			g = workload.SparseUniform(seed, rows, cols, bs, 0.3)
		} else {
			g = workload.DenseRandom(seed, rows, cols, bs)
		}
		var buf bytes.Buffer
		if err := WriteGrid(&buf, g); err != nil {
			return false
		}
		got, err := ReadGrid(&buf)
		if err != nil {
			return false
		}
		return matrix.GridEqual(g, got, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: MatrixMarket round trip preserves values for random sparse
// grids.
func TestQuickMatrixMarketRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(25), 1+rng.Intn(25)
		g := workload.SparseUniform(seed, rows, cols, 4, 0.2)
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, g); err != nil {
			return false
		}
		got, err := ReadMatrixMarket(&buf, 7) // different block size on purpose
		if err != nil {
			return false
		}
		return matrix.GridEqual(g, got, 1e-15)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
