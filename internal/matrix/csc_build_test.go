package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refNewCSC is the comparison-sort builder NewCSC replaced (copy, sort.Slice
// by column then row, append per entry), with the sort made stable so that a
// cell listed three or more times is summed in input order — the order NewCSC
// documents; the unstable sort left that order to pdqsort.
func refNewCSC(rows, cols int, coords []Coord) *CSCBlock {
	for _, c := range coords {
		if c.Row < 0 || c.Row >= rows || c.Col < 0 || c.Col >= cols {
			panic(fmt.Sprintf("matrix: coord (%d,%d) outside %dx%d block", c.Row, c.Col, rows, cols))
		}
	}
	sorted := make([]Coord, len(coords))
	copy(sorted, coords)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Col != sorted[j].Col {
			return sorted[i].Col < sorted[j].Col
		}
		return sorted[i].Row < sorted[j].Row
	})
	b := &CSCBlock{rows: rows, cols: cols, ColPtr: make([]int32, cols+1)}
	for i := 0; i < len(sorted); {
		j := i + 1
		v := sorted[i].Val
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j++
		}
		b.RowIdx = append(b.RowIdx, int32(sorted[i].Row))
		b.Values = append(b.Values, v)
		b.ColPtr[sorted[i].Col+1]++
		i = j
	}
	for c := 0; c < cols; c++ {
		b.ColPtr[c+1] += b.ColPtr[c]
	}
	return b
}

// sameCSC reports how got differs from want in shape, structure or the bit
// pattern of a value, or "".
func sameCSC(got, want *CSCBlock) string {
	switch {
	case got.rows != want.rows || got.cols != want.cols:
		return fmt.Sprintf("shape %dx%d, want %dx%d", got.rows, got.cols, want.rows, want.cols)
	case !slices.Equal(got.ColPtr, want.ColPtr):
		return fmt.Sprintf("ColPtr %v, want %v", got.ColPtr, want.ColPtr)
	case !slices.Equal(got.RowIdx, want.RowIdx):
		return fmt.Sprintf("RowIdx %v, want %v", got.RowIdx, want.RowIdx)
	case len(got.Values) != len(want.Values):
		return fmt.Sprintf("%d values, want %d", len(got.Values), len(want.Values))
	case cap(got.RowIdx) != len(got.RowIdx) || cap(got.Values) != len(got.Values):
		return fmt.Sprintf("RowIdx/Values hold %d entries in arrays of %d/%d", len(got.Values), cap(got.RowIdx), cap(got.Values))
	}
	return bitDiff(got, want)
}

// TestNewCSCMatchesSortBuilder holds the counting-pass builder to the
// comparison-sort one it replaced: coordinates in random, sorted, reversed and
// row-major order, zero-valued entries (kept), cells listed twice and up to
// five times (summed in input order), empty rows and columns, 1 x n and n x 1
// blocks, and none at all.
func TestNewCSCMatchesSortBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	orders := map[string]func([]Coord){
		"random": func(c []Coord) { rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] }) },
		"column-major": func(c []Coord) {
			sort.SliceStable(c, func(i, j int) bool { return c[i].Col < c[j].Col || c[i].Col == c[j].Col && c[i].Row < c[j].Row })
		},
		"row-major": func(c []Coord) {
			sort.SliceStable(c, func(i, j int) bool { return c[i].Row < c[j].Row || c[i].Row == c[j].Row && c[i].Col < c[j].Col })
		},
		"reversed": func(c []Coord) {
			sort.SliceStable(c, func(i, j int) bool { return c[i].Col > c[j].Col || c[i].Col == c[j].Col && c[i].Row > c[j].Row })
		},
	}
	for _, sh := range [][2]int{{1, 1}, {1, 40}, {40, 1}, {7, 5}, {32, 32}, {33, 31}, {300, 200}} {
		rows, cols := sh[0], sh[1]
		for _, entries := range []int{0, 1, cols, 3 * cols, rows * cols / 2} {
			for _, repeats := range []int{1, 2, 5} {
				var coords []Coord
				for len(coords) < entries {
					c := Coord{Row: rng.Intn(rows), Col: rng.Intn(cols)}
					if c.Col%4 == 2 && cols > 4 {
						continue // some columns stay empty
					}
					for k := 1 + rng.Intn(repeats); k > 0; k-- {
						c.Val = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9))) // sums that depend on their order
						if rng.Intn(8) == 0 {
							c.Val = 0
						}
						coords = append(coords, c)
					}
				}
				for name, order := range orders {
					order(coords)
					input := slices.Clone(coords)
					got, want := NewCSC(rows, cols, coords), refNewCSC(rows, cols, coords)
					if diff := sameCSC(got, want); diff != "" {
						t.Fatalf("%dx%d, %d coords, up to %d a cell, %s order: %s", rows, cols, len(coords), repeats, name, diff)
					}
					if !slices.Equal(coords, input) {
						t.Fatalf("%dx%d %s order: NewCSC changed its input", rows, cols, name)
					}
				}
			}
		}
	}
}

// TestNewCSCOutOfRangePanics pins the panic, and its message, on a coordinate
// outside the block — wherever in the list it stands.
func TestNewCSCOutOfRangePanics(t *testing.T) {
	for _, bad := range []Coord{{Row: -1, Col: 0}, {Row: 3, Col: 0}, {Row: 0, Col: -1}, {Row: 0, Col: 4}} {
		for _, at := range []int{0, 2} {
			coords := []Coord{{Row: 1, Col: 1, Val: 1}, {Row: 2, Col: 3, Val: 2}}
			coords = slices.Insert(coords, at, bad)
			want := fmt.Sprintf("matrix: coord (%d,%d) outside 3x4 block", bad.Row, bad.Col)
			func() {
				defer func() {
					if got := recover(); got != want {
						t.Errorf("coord %+v at %d: panic %v, want %q", bad, at, got, want)
					}
				}()
				NewCSC(3, 4, coords)
			}()
		}
	}
	defer func() {
		if got, want := recover(), "matrix: coord (9,0) outside 8x8 matrix"; got != want {
			t.Errorf("FromCoords: panic %v, want %q", got, want)
		}
	}()
	FromCoords(8, 8, 4, []Coord{{Row: 9, Col: 0, Val: 1}})
}

// TestNewCSCFromCoordsMatchesPerBlock checks FromCoords' bucketing over ragged
// grids: every block equals NewCSC over the coordinates that fall in it, taken
// in input order and shifted to block-local indices.
func TestNewCSCFromCoordsMatchesPerBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, sh := range [][3]int{{1, 1, 1}, {10, 10, 10}, {10, 10, 3}, {70, 45, 32}, {45, 70, 32}, {64, 64, 32}, {5, 90, 7}} {
		rows, cols, bs := sh[0], sh[1], sh[2]
		coords := make([]Coord, rows*cols/3+1)
		for i := range coords {
			coords[i] = Coord{Row: rng.Intn(rows), Col: rng.Intn(cols), Val: rng.NormFloat64()}
		}
		g := FromCoords(rows, cols, bs, coords)
		for bi := 0; bi < g.BlockRows(); bi++ {
			for bj := 0; bj < g.BlockCols(); bj++ {
				var local []Coord
				for _, c := range coords {
					if c.Row/bs == bi && c.Col/bs == bj {
						local = append(local, Coord{Row: c.Row % bs, Col: c.Col % bs, Val: c.Val})
					}
				}
				r, c := g.BlockDims(bi, bj)
				if diff := sameCSC(g.Block(bi, bj).(*CSCBlock), refNewCSC(r, c, local)); diff != "" {
					t.Fatalf("%dx%d block %d, block (%d,%d): %s", rows, cols, bs, bi, bj, diff)
				}
			}
		}
	}
}

// TestNewCSCConcurrent builds blocks from several goroutines at once: the
// builder's pooled counters must be private to a call (run under -race).
func TestNewCSCConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	coords := make([]Coord, 4000)
	for i := range coords {
		coords[i] = Coord{Row: rng.Intn(300), Col: rng.Intn(200), Val: rng.NormFloat64()}
	}
	want := refNewCSC(300, 200, coords)
	errs := make(chan string, 8)
	for g := 0; g < cap(errs); g++ {
		go func() {
			for r := 0; r < 20; r++ {
				if diff := sameCSC(NewCSC(300, 200, coords), want); diff != "" {
					errs <- diff
					return
				}
			}
			errs <- ""
		}()
	}
	for g := 0; g < cap(errs); g++ {
		if msg := <-errs; msg != "" {
			t.Error(msg)
		}
	}
}

// graphCoords lists degree random out-edges for each of nodes nodes, row by
// row: the coordinate stream workload.PowerLawGraph and RowNormalize hand to
// FromCoords, without the power law.
func graphCoords(nodes, degree int) []Coord {
	rng := rand.New(rand.NewSource(int64(nodes)))
	coords := make([]Coord, 0, nodes*degree)
	for i := 0; i < nodes; i++ {
		for k := 0; k < degree; k++ {
			coords = append(coords, Coord{Row: i, Col: rng.Intn(nodes), Val: 1})
		}
	}
	return coords
}

// The two graph shapes the benchmark builds: serve_mix's pagerank job (1 024
// nodes in 32-wide blocks, 8 entries a block) and pagerank_wire's graph
// (60 000 nodes in 10 606-wide blocks, 1.26 entries a column).
var buildShapes = []struct {
	name         string
	nodes, block int
}{
	{"serve-1024-b32", 1024, 32},
	{"wire-60000-b10606", 60000, 10606},
}

// BenchmarkFromCoords builds a whole graph grid.
func BenchmarkFromCoords(b *testing.B) {
	for _, sh := range buildShapes {
		b.Run(sh.name, func(b *testing.B) {
			coords := graphCoords(sh.nodes, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FromCoords(sh.nodes, sh.nodes, sh.block, coords)
			}
			b.ReportMetric(float64(len(coords))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mentries/s")
		})
	}
}

// BenchmarkNewCSC builds one block of each grid from its shuffled coordinates.
func BenchmarkNewCSC(b *testing.B) {
	for _, sh := range buildShapes {
		b.Run(sh.name, func(b *testing.B) {
			coords := FromCoords(sh.nodes, sh.nodes, sh.block, graphCoords(sh.nodes, 8)).Block(0, 0).(*CSCBlock).Coords()
			rand.New(rand.NewSource(1)).Shuffle(len(coords), func(i, j int) { coords[i], coords[j] = coords[j], coords[i] })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				NewCSC(sh.block, sh.block, coords)
			}
			b.ReportMetric(float64(len(coords))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mentries/s")
		})
	}
}
