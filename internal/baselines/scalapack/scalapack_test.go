package scalapack

import (
	"math/rand"
	"testing"

	"dmac/internal/cost"
	"dmac/internal/matrix"
)

func randSparseGrid(rng *rand.Rand, rows, cols, bs int, s float64) *matrix.Grid {
	var coords []matrix.Coord
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < s {
				coords = append(coords, matrix.Coord{Row: i, Col: j, Val: rng.NormFloat64()})
			}
		}
	}
	return matrix.FromCoords(rows, cols, bs, coords)
}

func TestMultiplyCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randSparseGrid(rng, 20, 15, 6, 0.3)
	b := randSparseGrid(rng, 15, 18, 6, 0.5)
	res, err := Multiply(a, b, Config{ProcRows: 2, ProcCols: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := matrix.MulGrid(a, b)
	if !matrix.GridEqual(res.Grid, want, 1e-9) {
		t.Error("product wrong")
	}
	if res.WallSeconds < 0 || res.ModelSeconds <= 0 {
		t.Errorf("times: wall=%v model=%v", res.WallSeconds, res.ModelSeconds)
	}
}

func TestSparsityObliviousness(t *testing.T) {
	// ScaLAPACK treats sparse as dense: a near-empty matrix and a fully
	// dense one of the same shape must produce the same model time.
	rng := rand.New(rand.NewSource(2))
	sparse := randSparseGrid(rng, 30, 30, 10, 0.01)
	dense := randSparseGrid(rng, 30, 30, 10, 1)
	rs, err := Multiply(sparse, sparse, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Multiply(dense, dense, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.ModelSeconds != rd.ModelSeconds {
		t.Errorf("model times differ with sparsity: %v vs %v", rs.ModelSeconds, rd.ModelSeconds)
	}
	if rs.FLOPs != rd.FLOPs || rs.CommBytes != rd.CommBytes {
		t.Error("FLOPs/traffic must be sparsity-oblivious")
	}
}

func TestCommVolumeScalesWithGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randSparseGrid(rng, 24, 24, 8, 1)
	small, err := Multiply(a, a, Config{ProcRows: 2, ProcCols: 2})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Multiply(a, a, Config{ProcRows: 8, ProcCols: 8})
	if err != nil {
		t.Fatal(err)
	}
	if large.CommBytes <= small.CommBytes {
		t.Errorf("SUMMA traffic should grow with the process grid: %d vs %d", large.CommBytes, small.CommBytes)
	}
	if large.Messages <= small.Messages {
		t.Error("message count should grow with the process grid")
	}
}

func TestShapeError(t *testing.T) {
	a := matrix.NewDenseGrid(3, 4, 2)
	b := matrix.NewDenseGrid(5, 3, 2)
	if _, err := Multiply(a, b, Config{}); err == nil {
		t.Error("expected shape error")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.ProcRows != 8 || cfg.ProcCols != 8 {
		t.Errorf("default grid %dx%d", cfg.ProcRows, cfg.ProcCols)
	}
	want := cost.Production()
	want.ShuffleLatencySec = 1e-3 // a message, not a Spark stage
	if cfg.Rates != want || cfg.LocalParallelism != 64 {
		t.Errorf("defaults incomplete: %+v", cfg)
	}
}
