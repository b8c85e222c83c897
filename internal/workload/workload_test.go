package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dmac/internal/matrix"
)

func TestSparseUniformDeterministicAndSized(t *testing.T) {
	a := SparseUniform(7, 100, 200, 32, 0.05)
	b := SparseUniform(7, 100, 200, 32, 0.05)
	if matrix.BitDiff(a, b) != "" {
		t.Error("same seed must reproduce the same matrix")
	}
	c := SparseUniform(8, 100, 200, 32, 0.05)
	if matrix.BitDiff(a, c) == "" {
		t.Error("different seeds should differ")
	}
	want := int(0.05 * 100 * 200)
	if a.NNZ() != want {
		t.Errorf("nnz = %d, want %d", a.NNZ(), want)
	}
	// Values bounded away from zero.
	g := a.ToDense()
	for _, v := range g {
		if v != 0 && (v < 0.5 || v >= 1.5) {
			t.Fatalf("value %v out of range", v)
		}
	}
}

func TestDenseRandomPositive(t *testing.T) {
	g := DenseRandom(3, 20, 10, 8)
	if g.NNZ() != 200 {
		t.Errorf("dense generator produced zeros: nnz=%d", g.NNZ())
	}
	for _, v := range g.ToDense() {
		if v < 0.1 || v >= 1.1 {
			t.Fatalf("value %v out of range", v)
		}
	}
}

func TestRatingsIntegerValues(t *testing.T) {
	g := Ratings(5, 50, 80, 16, 0.1)
	if g.NNZ() != 400 {
		t.Errorf("nnz = %d, want 400", g.NNZ())
	}
	for _, v := range g.ToDense() {
		if v == 0 {
			continue
		}
		if v != math.Trunc(v) || v < 1 || v > 5 {
			t.Fatalf("rating %v not in 1..5", v)
		}
	}
}

func TestPowerLawGraphProperties(t *testing.T) {
	const nodes = 500
	const avgDeg = 8.0
	g := PowerLawGraph(11, nodes, avgDeg, 64)
	if g.Rows() != nodes || g.Cols() != nodes {
		t.Fatalf("shape %dx%d", g.Rows(), g.Cols())
	}
	// Edge count approximates nodes*avgDegree (within 30%).
	edges := float64(g.NNZ())
	if edges < 0.7*nodes*avgDeg || edges > 1.3*nodes*avgDeg {
		t.Errorf("edges = %v, want ~%v", edges, nodes*avgDeg)
	}
	// No self loops; at least one out-edge per node; 0/1 values.
	dense := g.ToDense()
	for i := 0; i < nodes; i++ {
		if dense[i*nodes+i] != 0 {
			t.Fatalf("self loop at %d", i)
		}
		deg := 0
		for j := 0; j < nodes; j++ {
			v := dense[i*nodes+j]
			if v != 0 && v != 1 {
				t.Fatalf("edge weight %v", v)
			}
			if v == 1 {
				deg++
			}
		}
		if deg == 0 {
			t.Fatalf("node %d has no out-edges", i)
		}
	}
	// Determinism.
	if matrix.BitDiff(g, PowerLawGraph(11, nodes, avgDeg, 64)) != "" {
		t.Error("graph generation not deterministic")
	}
	// Degree skew: the max out-degree should clearly exceed the average.
	maxDeg := 0
	for i := 0; i < nodes; i++ {
		deg := 0
		for j := 0; j < nodes; j++ {
			if dense[i*nodes+j] != 0 {
				deg++
			}
		}
		if deg > maxDeg {
			maxDeg = deg
		}
	}
	if float64(maxDeg) < 3*avgDeg {
		t.Errorf("max degree %d shows no power-law skew (avg %v)", maxDeg, avgDeg)
	}
}

// refPowerLawGraph is PowerLawGraph as it stood while a map held each node's
// targets: the generator the node-stamped marker array must reproduce edge
// for edge.
func refPowerLawGraph(seed int64, nodes int, avgDegree float64, blockSize int) *matrix.Grid {
	const alpha = 2.1
	rng := rand.New(rand.NewSource(seed))
	raw := make([]float64, nodes)
	var sum float64
	maxDeg := float64(nodes-1) / 4
	if maxDeg < 1 {
		maxDeg = 1
	}
	for i := range raw {
		d := math.Pow(1/(1-rng.Float64()), 1/(alpha-1))
		if d > maxDeg {
			d = maxDeg
		}
		raw[i] = d
		sum += d
	}
	scale := avgDegree * float64(nodes) / sum
	var coords []matrix.Coord
	targets := make(map[int]bool)
	for i := 0; i < nodes; i++ {
		deg := int(raw[i]*scale + 0.5)
		if deg < 1 {
			deg = 1
		}
		if deg > nodes-1 {
			deg = nodes - 1
		}
		clear(targets)
		for len(targets) < deg {
			j := rng.Intn(nodes)
			if j == i || targets[j] {
				continue
			}
			targets[j] = true
			coords = append(coords, matrix.Coord{Row: i, Col: j, Val: 1})
		}
	}
	return matrix.FromCoords(nodes, nodes, blockSize, coords)
}

// blockDigest is a SHA-256 over every block's ColPtr, RowIdx and Values, in
// row-major block order, little-endian.
func blockDigest(t *testing.T, g *matrix.Grid) string {
	t.Helper()
	h := sha256.New()
	for bi := 0; bi < g.BlockRows(); bi++ {
		for bj := 0; bj < g.BlockCols(); bj++ {
			b := g.Block(bi, bj).(*matrix.CSCBlock)
			for _, part := range []any{b.ColPtr, b.RowIdx, b.Values} {
				if err := binary.Write(h, binary.LittleEndian, part); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// refGraphDigests are blockDigest of refPowerLawGraph(seed, 60000, 8, 10606)
// for seeds 1..10, pagerank_wire's graph: recorded by running the reference
// generator itself through blockDigest, which takes ~2 s a graph — too slow
// to repeat on every test run.
var refGraphDigests = []string{
	"b0fe1e219d939e485f1c34516332ae0e3559767a7d00fba661856905ad172401",
	"d5b3caea29020d6d32a2e64a6a40f9e13dc03776773c15eb3e4557116b2e4628",
	"19b553c975c93a9b447cb95c190f1e0dc654abc4cd79db8fb1a52fdf9ec8a590",
	"bc7a7e75fc921e245195aea096110f15a123719e2dbcf2f6d7b616abf94f82ed",
	"5c00c45f548830290abefc560d806f0a2b12288a8c7d8784f83fa398a4a82c12",
	"0a2ec12cc6a4579a0f1cbbbdbb068fe0936353b9b029c51676e514b34344f089",
	"8ed6039425a1dfa1e286aca60a65a4ff59f4220f1161a2da3207a35a514a9029",
	"7388abe902a1d2dd1a41100be4449664dcae1766bfb3243e97d9108d85c05811",
	"c578f5e6d55e8187c148f80ff8c615ea16386761a36218c788d10aaea209e633",
	"e9e1855fc539228c72e2f74578feaf283d794964bc1d3bfceb3708bc45dc9fb5",
}

// TestPowerLawGraphMatchesReference pins the graph of every seed the
// benchmark draws, at the sizes of its serve_mix jobs and of pagerank_wire,
// and of the served jobs the tests and CI submit: the same stored entries in
// the same blocks, so the same comm_bytes. The small sizes compare against
// the reference generator directly, among them degrees past nodes-1 (the
// complete graph); the 60 000-node graphs against its recorded digests.
func TestPowerLawGraphMatchesReference(t *testing.T) {
	for _, sz := range []struct {
		nodes, bs int
		degree    float64
	}{
		{1, 4, 8}, {2, 4, 8}, {48, 16, 3}, {64, 64, 3}, {64, 16, 100},
		{256, 90, 3}, {600, 7, 4}, {1024, 32, 8}, {1024, 1024, 8},
	} {
		nodes, bs := sz.nodes, sz.bs
		for seed := int64(1); seed <= 10; seed++ {
			got, want := PowerLawGraph(seed, nodes, sz.degree, bs), refPowerLawGraph(seed, nodes, sz.degree, bs)
			for bi := 0; bi < want.BlockRows(); bi++ {
				for bj := 0; bj < want.BlockCols(); bj++ {
					g, w := got.Block(bi, bj).(*matrix.CSCBlock), want.Block(bi, bj).(*matrix.CSCBlock)
					if !slices.Equal(g.ColPtr, w.ColPtr) || !slices.Equal(g.RowIdx, w.RowIdx) || !slices.Equal(g.Values, w.Values) {
						t.Fatalf("%d nodes, degree %g, seed %d: block (%d,%d) differs from the reference generator's", nodes, sz.degree, seed, bi, bj)
					}
				}
			}
		}
	}
	for i, want := range refGraphDigests {
		seed := int64(i + 1)
		if got := blockDigest(t, PowerLawGraph(seed, 60000, 8, 10606)); got != want {
			t.Errorf("60000 nodes, seed %d: block digest %s, reference %s", seed, got, want)
		}
	}
}

// refRowNormalize is the direct form of RowNormalize: collect every entry,
// divide it by its row's sum and rebuild the grid through FromCoords.
// RowNormalize must reproduce it bit for bit.
func refRowNormalize(g *matrix.Grid) *matrix.Grid {
	rows, cols := g.Rows(), g.Cols()
	sums := make([]float64, rows)
	coords := make([]matrix.Coord, 0, g.NNZ())
	for bi := 0; bi < g.BlockRows(); bi++ {
		for bj := 0; bj < g.BlockCols(); bj++ {
			r0, c0 := bi*g.BlockSize(), bj*g.BlockSize()
			b := g.Block(bi, bj)
			switch t := b.(type) {
			case *matrix.CSCBlock:
				t.EachNZ(func(i, j int, v float64) {
					sums[r0+i] += v
					coords = append(coords, matrix.Coord{Row: r0 + i, Col: c0 + j, Val: v})
				})
			default:
				for i := 0; i < b.Rows(); i++ {
					for j := 0; j < b.Cols(); j++ {
						if v := b.At(i, j); v != 0 {
							sums[r0+i] += v
							coords = append(coords, matrix.Coord{Row: r0 + i, Col: c0 + j, Val: v})
						}
					}
				}
			}
		}
	}
	for k := range coords {
		if s := sums[coords[k].Row]; s != 0 {
			coords[k].Val /= s
		}
	}
	return matrix.FromCoords(rows, cols, g.BlockSize(), coords)
}

// TestRowNormalizeMatchesReference pins RowNormalize to the reference over
// several seeds and block sizes, the served PageRank's Eq. 3 picks among
// them: the same block types, the same stored entries and the same value
// bits. A graph's entries are all 1, so its row sums are exact in any order;
// the random-valued sparse input is the one that pins the summation order,
// and a dense input takes the other branch.
func TestRowNormalizeMatchesReference(t *testing.T) {
	for _, bs := range []int{4, 7, 32, 45, 181, 1024} {
		for seed := int64(1); seed <= 5; seed++ {
			for _, g := range []*matrix.Grid{
				PowerLawGraph(seed, 1024, 8, bs),
				SparseUniform(seed, 300, 200, bs, 0.05),
				DenseRandom(seed, 40, 30, bs),
			} {
				got, want := RowNormalize(g), refRowNormalize(g)
				for bi := 0; bi < want.BlockRows(); bi++ {
					for bj := 0; bj < want.BlockCols(); bj++ {
						w := want.Block(bi, bj).(*matrix.CSCBlock)
						b, ok := got.Block(bi, bj).(*matrix.CSCBlock)
						if !ok || !slices.Equal(b.ColPtr, w.ColPtr) || !slices.Equal(b.RowIdx, w.RowIdx) {
							t.Fatalf("%dx%d, block %d, seed %d: block (%d,%d) is stored unlike the reference", g.Rows(), g.Cols(), bs, seed, bi, bj)
						}
					}
				}
				if d := matrix.BitDiff(got, want); d != "" {
					t.Fatalf("%dx%d, block %d, seed %d: differs from the reference at %s", g.Rows(), g.Cols(), bs, seed, d)
				}
			}
		}
	}
}

// FuzzGeneratorsMatchReference holds every generator to its staged
// reference (reference_test.go) bit for bit: the same block kinds, column
// pointers, row indices and value bits, and no two blocks sharing an array.
// It covers sizes 1-300, block sizes from 1 to past the matrix, degrees past
// nodes-1 and sparsities up to 1; the link a served PageRank normalizes in
// place, and RowNormalize of random values and of a dense grid, are held to
// stagedRowNormalize.
func FuzzGeneratorsMatchReference(f *testing.F) {
	f.Add(int64(1), uint16(47), uint16(31), uint16(15), 3.0, 0.2)
	f.Add(int64(2), uint16(0), uint16(0), uint16(0), 8.0, 1.0)
	f.Add(int64(3), uint16(63), uint16(9), uint16(400), 1e13, 0.05)
	f.Add(int64(4), uint16(299), uint16(299), uint16(44), 8.0, 1.0)
	f.Add(int64(5), uint16(180), uint16(2), uint16(6), math.Inf(1), 0.9)
	f.Add(int64(-6), uint16(1), uint16(299), uint16(299), -2.0, 1e-3)
	f.Add(int64(7), uint16(299), uint16(299), uint16(0), 2.0, 0.05)
	f.Add(int64(8), uint16(299), uint16(199), uint16(31), 2.0, 0.002)
	f.Fuzz(func(t *testing.T, seed int64, r, c, b uint16, degree, sparsity float64) {
		if math.IsNaN(degree) || math.IsNaN(sparsity) {
			t.Skip("a NaN degree or sparsity sizes no matrix")
		}
		rows, cols := 1+int(r)%300, 1+int(c)%300
		bs := 1 + int(b)%(max(rows, cols)+20)
		sparsity = min(math.Abs(sparsity), 1)
		check := func(what string, got, want *matrix.Grid) {
			t.Helper()
			if d := gridDiff(got, want); d != "" {
				t.Fatalf("%s, seed %d, %dx%d at block %d, degree %g, sparsity %g: %s", what, seed, rows, cols, bs, degree, sparsity, d)
			}
		}
		adj := PowerLawGraph(seed, rows, degree, bs)
		refAdj := stagedPowerLawGraph(seed, rows, degree, bs)
		check("PowerLawGraph", adj, refAdj)
		check("RowNormalize", RowNormalize(adj), stagedRowNormalize(refAdj))
		normalizeRows(adj)
		check("normalizeRows", adj, stagedRowNormalize(refAdj))
		sparse := SparseUniform(seed, rows, cols, bs, sparsity)
		refSparse := stagedSparseUniform(seed, rows, cols, bs, sparsity)
		check("SparseUniform", sparse, refSparse)
		check("RowNormalize of a random-valued grid", RowNormalize(sparse), stagedRowNormalize(refSparse))
		check("Ratings", Ratings(seed, rows, cols, bs, sparsity), stagedRatings(seed, rows, cols, bs, sparsity))
		dense := DenseRandom(seed, rows, cols, bs)
		refDense := stagedDenseRandom(seed, rows, cols, bs)
		check("DenseRandom", dense, refDense)
		check("RowNormalize of a dense grid", RowNormalize(dense), stagedRowNormalize(refDense))
	})
}

func TestRowNormalize(t *testing.T) {
	g := PowerLawGraph(13, 120, 5, 32)
	link := RowNormalize(g)
	dense := link.ToDense()
	for i := 0; i < 120; i++ {
		sum := 0.0
		for j := 0; j < 120; j++ {
			sum += dense[i*120+j]
		}
		if math.Abs(sum-1) > 1e-9 && sum != 0 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
	if link.NNZ() != g.NNZ() {
		t.Error("normalization changed the sparsity pattern")
	}
}

func TestGraphRegistry(t *testing.T) {
	if len(Graphs) != 4 {
		t.Fatalf("registry has %d graphs, want 4 (Table 3)", len(Graphs))
	}
	// Table 3 statistics.
	wantNodes := map[string]int64{
		"soc-pokec":   1632803,
		"cit-Patents": 3774768,
		"LiveJournal": 4847571,
		"Wikipedia":   25942254,
	}
	for name, nodes := range wantNodes {
		spec, ok := GraphByName(name)
		if !ok {
			t.Fatalf("missing graph %s", name)
		}
		if spec.PaperNodes != nodes {
			t.Errorf("%s nodes = %d, want %d", name, spec.PaperNodes, nodes)
		}
		if spec.AvgDegree() <= 1 {
			t.Errorf("%s average degree %v", name, spec.AvgDegree())
		}
	}
	if _, ok := GraphByName("nope"); ok {
		t.Error("unknown graph found")
	}
}

func TestGraphSpecGenerate(t *testing.T) {
	spec, _ := GraphByName("soc-pokec")
	gen := spec.Generate(4000, 64)
	if gen.Nodes != spec.ScaledNodes(4000) {
		t.Errorf("nodes = %d", gen.Nodes)
	}
	wantEdges := float64(gen.Nodes) * spec.AvgDegree()
	if e := float64(gen.Edges); e < 0.7*wantEdges || e > 1.3*wantEdges {
		t.Errorf("edges = %d, want ~%v (degree preserved)", gen.Edges, wantEdges)
	}
	if gen.String() == "" {
		t.Error("empty description")
	}
	// Minimum size floor.
	if n := spec.ScaledNodes(1 << 30); n != 64 {
		t.Errorf("scale floor = %d, want 64", n)
	}
}

func TestNetflixScaled(t *testing.T) {
	movies, users, g := Netflix.Scaled(100, 32)
	if movies != 177 || users != 4801 {
		t.Errorf("scaled dims %dx%d", movies, users)
	}
	if g.Rows() != movies || g.Cols() != users {
		t.Errorf("grid dims %dx%d", g.Rows(), g.Cols())
	}
	wantNNZ := int(Netflix.Sparsity * float64(movies) * float64(users))
	if g.NNZ() != wantNNZ {
		t.Errorf("nnz = %d, want %d", g.NNZ(), wantNNZ)
	}
	// Floors.
	m2, u2, _ := Netflix.Scaled(1<<30, 32)
	if m2 != 32 || u2 != 32 {
		t.Errorf("floor dims %dx%d", m2, u2)
	}
}
