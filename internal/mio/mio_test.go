package mio

import (
	"bytes"
	"io"
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
	if matrix.BitDiff(g, got) != "" {
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
	if matrix.BitDiff(g, got) != "" {
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

// formats are the two binary format versions: the legacy one, which stays
// readable for old checkpoints and exports, and the checked one. ReadGrid
// tells them apart itself.
var formats = []struct {
	name  string
	write func(io.Writer, *matrix.Grid) error
}{{"v1", WriteGrid}, {"v2", WriteGridChecked}}

// checkRoundTrip writes g with write, reads it back and holds the result to
// g's block size, each block's representation (a CSC block's structure
// included) and g's bits.
func checkRoundTrip(t *testing.T, write func(io.Writer, *matrix.Grid) error, g *matrix.Grid) {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGrid(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.BlockSize() != g.BlockSize() {
		t.Fatalf("block size %d, want %d", got.BlockSize(), g.BlockSize())
	}
	for bi := 0; bi < g.BlockRows(); bi++ {
		for bj := 0; bj < g.BlockCols(); bj++ {
			w, sparse := g.Block(bi, bj).(*matrix.CSCBlock)
			b, ok := got.Block(bi, bj).(*matrix.CSCBlock)
			if sparse != ok || sparse && (!slices.Equal(w.ColPtr, b.ColPtr) || !slices.Equal(w.RowIdx, b.RowIdx)) {
				t.Errorf("block (%d,%d) is stored unlike the one written", bi, bj)
			}
		}
	}
	if d := matrix.BitDiff(g, got); d != "" {
		t.Errorf("%dx%d grid read back differs at %s", g.Rows(), g.Cols(), d)
	}
}

// TestBinaryRoundTripMixed: a grid of sparse blocks and a dense one, and a
// dense grid with ragged edge blocks, come back from both formats.
func TestBinaryRoundTripMixed(t *testing.T) {
	mixed := workload.SparseUniform(3, 30, 30, 10, 0.05)
	mixed.SetBlock(1, 1, workload.DenseRandom(9, 10, 10, 10).Block(0, 0))
	for _, f := range formats {
		t.Run(f.name, func(t *testing.T) {
			checkRoundTrip(t, f.write, mixed)
			checkRoundTrip(t, f.write, workload.DenseRandom(7, 12, 9, 5))
		})
	}
}

// TestBinaryRoundTripKeepsCSCStorage: a decoded sparse block takes the column
// pointers, row indices and values it was written with as its own — encoding the decoded
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
	for _, f := range formats {
		t.Run(f.name, func(t *testing.T) {
			bothEncoderPaths(t, func(t *testing.T) { checkRoundTrip(t, f.write, g) })
		})
	}
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

// TestBinaryRejectsUnorderedRows: the writer stores each column's rows
// strictly increasing, so a stream with a repeated or out-of-order row in a
// column is corrupt, in either format version, and is refused rather than
// summed or sorted into a block.
func TestBinaryRejectsUnorderedRows(t *testing.T) {
	for _, tc := range []struct {
		name string
		rows []int32
	}{
		{"repeated", []int32{1, 1}},
		{"out of order", []int32{2, 1}},
	} {
		g := matrix.NewGrid(4, 4, 4)
		g.SetBlock(0, 0, matrix.NewCSCData(4, 4, []int32{0, 0, 2, 2, 2}, tc.rows, []float64{1, 2}))
		for _, f := range formats {
			var buf bytes.Buffer
			if err := f.write(&buf, g); err != nil {
				t.Fatal(err)
			}
			if got, err := ReadGrid(&buf); err == nil {
				t.Errorf("%s rows, %s: decoded to %v, want an error", tc.name, f.name, got.Block(0, 0))
			}
		}
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
		return matrix.BitDiff(g, got) == ""
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
