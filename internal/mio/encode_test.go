package mio

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"dmac/internal/matrix"
	"dmac/internal/workload"
)

// refWriteBlock is the encoder writeBlock replaced — encoding/binary over
// whole payload slices — kept as the reference the chunked encoder must match
// byte for byte.
func refWriteBlock(w io.Writer, b matrix.Block) {
	le := binary.LittleEndian
	if t, ok := b.(*matrix.CSCBlock); ok {
		w.Write([]byte{1})
		binary.Write(w, le, uint64(t.NNZ()))
		binary.Write(w, le, t.ColPtr)
		binary.Write(w, le, t.RowIdx)
		binary.Write(w, le, t.Values)
		return
	}
	w.Write([]byte{0})
	binary.Write(w, le, b.Dense().Data)
}

// encodeTestGrids are a dense and a CSC grid whose blocks span several
// scratch-buffer chunks and end mid-chunk, plus blocks smaller than a chunk.
func encodeTestGrids() []*matrix.Grid {
	return []*matrix.Grid{
		workload.DenseRandom(1, 150, 131, 97),          // 97x97 f64 = 2.3 chunks
		workload.SparseUniform(2, 400, 380, 300, 0.12), // ~10k nnz per full block
		workload.DenseRandom(3, 9, 7, 4),
		workload.SparseUniform(4, 30, 30, 10, 0.05),
	}
}

func TestChunkedEncoderMatchesEncodingBinary(t *testing.T) {
	for gi, g := range encodeTestGrids() {
		for bi := 0; bi < g.BlockRows(); bi++ {
			for bj := 0; bj < g.BlockCols(); bj++ {
				blk := g.Block(bi, bj)
				var want bytes.Buffer
				refWriteBlock(&want, blk)
				got := EncodeBlock(blk)
				if !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("grid %d block (%d,%d): encoding differs from encoding/binary", gi, bi, bj)
				}
				if len(got) != cap(got) {
					t.Errorf("grid %d block (%d,%d): EncodeBlock buffer len %d cap %d, want presized exactly",
						gi, bi, bj, len(got), cap(got))
				}
				if BlockChecksum(blk) != ChecksumBytes(want.Bytes()) {
					t.Errorf("grid %d block (%d,%d): BlockChecksum differs from the reference encoding's CRC", gi, bi, bj)
				}
			}
		}
	}
}

// Writing a grid allocates a fixed handful of objects (bufio's writer and
// buffer, the CRC writer, at worst a fresh scratch buffer), never one per
// block: encoding/binary allocated — and zeroed — an 8-bytes-per-element
// temporary for every block.
func TestWriteGridCheckedAllocs(t *testing.T) {
	g := workload.DenseRandom(5, 600, 600, 200) // 9 blocks x 320 KB
	allocs := testing.AllocsPerRun(10, func() {
		if err := WriteGridChecked(io.Discard, g); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Errorf("WriteGridChecked allocated %.0f objects for a 9-block grid, want <= 6", allocs)
	}
}
