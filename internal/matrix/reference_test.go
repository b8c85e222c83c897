package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refFromDense is FromDense's earlier body, kept as the reference the
// current one must reproduce bit for bit: it set each element through a
// division by the block size.

// refFromDense builds a dense grid from a row-major rows x cols slice.
func refFromDense(rows, cols, blockSize int, data []float64) *Grid {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("matrix: data length %d != %d*%d", len(data), rows, cols))
	}
	g := NewDenseGrid(rows, cols, blockSize)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if v := data[i*cols+j]; math.Float64bits(v) != 0 {
				g.blocks[(i/blockSize)*g.bcols+j/blockSize].(*DenseBlock).Set(i%blockSize, j%blockSize, v)
			}
		}
	}
	return g
}

// FuzzFromDenseMatchesReference holds FromDense to its reference: the same
// block kinds and value bits, on ragged grids cut at block sizes from 1 to
// past the matrix, with zeros of both signs among the values.
func FuzzFromDenseMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(17), uint8(9), uint8(4))
	f.Add(int64(2), uint8(40), uint8(40), uint8(7))
	f.Add(int64(3), uint8(1), uint8(1), uint8(0))
	f.Add(int64(4), uint8(90), uint8(3), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, r, c, b uint8) {
		rows, cols := 1+int(r)%100, 1+int(c)%100
		bs := 1 + int(b)%(max(rows, cols)+10)
		rng := rand.New(rand.NewSource(seed))
		data := make([]float64, rows*cols)
		for k := range data {
			switch rng.Intn(8) {
			case 0:
			case 1:
				data[k] = math.Copysign(0, -1)
			default:
				data[k] = rng.NormFloat64()
			}
		}
		got, want := FromDense(rows, cols, bs, data), refFromDense(rows, cols, bs, data)
		for k, gb := range got.blocks {
			g, ok := gb.(*DenseBlock)
			if !ok {
				t.Fatalf("%dx%d at block %d: block %d is a %T, want a dense block", rows, cols, bs, k, gb)
			}
			if diff := bitDiff(g, want.blocks[k].(*DenseBlock)); diff != "" {
				t.Fatalf("%dx%d at block %d: block %d: %s", rows, cols, bs, k, diff)
			}
		}
	})
}
