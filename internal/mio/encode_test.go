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

// forcePortable makes the encoder take the loops a big-endian host would run
// until the test, benchmark or fuzz call ends.
func forcePortable(tb testing.TB) {
	native := nativeLE
	nativeLE = false
	tb.Cleanup(func() { nativeLE = native })
}

// bothEncoderPaths runs f on the encoder the host selects and again on the
// portable one, so the two are held to the same stream and the same
// allocation count.
func bothEncoderPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	t.Run("host", f)
	t.Run("portable", func(t *testing.T) {
		forcePortable(t)
		f(t)
	})
}

func TestChunkedEncoderMatchesEncodingBinary(t *testing.T) {
	bothEncoderPaths(t, testEncoderMatchesEncodingBinary)
}

func testEncoderMatchesEncodingBinary(t *testing.T) {
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
				// The segmented form is the same bytes, cut for a vectored
				// write.
				head := make([]byte, BlockHeadLen)
				headLen, segs, n := BlockSegments(blk, head, nil)
				pieces := append(head[:headLen:headLen], bytes.Join(segs, nil)...)
				if !bytes.Equal(pieces, want.Bytes()) || n != want.Len() {
					t.Errorf("grid %d block (%d,%d): BlockSegments (%d bytes, reported %d) differs from the encoding (%d bytes)",
						gi, bi, bj, len(pieces), n, want.Len())
				}
				if BlockChecksum(blk) != ChecksumBytes(want.Bytes()) {
					t.Errorf("grid %d block (%d,%d): BlockChecksum differs from the reference encoding's CRC", gi, bi, bj)
				}
			}
		}
		// The grid stream frames the same block encodings: header, then each
		// block followed by its CRC.
		var got, want bytes.Buffer
		if err := WriteGridChecked(&got, g); err != nil {
			t.Fatal(err)
		}
		want.WriteString(binaryMagic)
		for _, v := range []uint64{binaryVersionChecked, uint64(g.Rows()), uint64(g.Cols()), uint64(g.BlockSize())} {
			binary.Write(&want, binary.LittleEndian, v)
		}
		for bi := 0; bi < g.BlockRows(); bi++ {
			for bj := 0; bj < g.BlockCols(); bj++ {
				at := want.Len()
				refWriteBlock(&want, g.Block(bi, bj))
				binary.Write(&want, binary.LittleEndian, ChecksumBytes(want.Bytes()[at:]))
			}
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("grid %d: WriteGridChecked stream differs from the encoding/binary reference", gi)
		}
	}
}

// Writing a grid allocates a fixed handful of objects (bufio's writer and
// buffer, the CRC writer, at worst a fresh scratch buffer), never one per
// block: encoding/binary allocated — and zeroed — an 8-bytes-per-element
// temporary for every block.
func TestWriteGridCheckedAllocs(t *testing.T) {
	bothEncoderPaths(t, func(t *testing.T) {
		g := workload.DenseRandom(5, 600, 600, 200) // 9 blocks x 320 KB
		allocs := testing.AllocsPerRun(10, func() {
			if err := WriteGridChecked(io.Discard, g); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 6 {
			t.Errorf("WriteGridChecked allocated %.0f objects for a 9-block grid, want <= 6", allocs)
		}
	})
}

// The benchmarks below size the three mio paths the engine leans on: the
// checkpoint writer (a thin dense grid like GNMF's H to a discarding writer,
// so the number is the encoder and the CRC alone), the wire path's block
// encoder (a rank-vector block), and the restore path's reader.

var benchSink int

// benchEncoderPaths times f on the host's encoder and on the portable loops.
func benchEncoderPaths(b *testing.B, bytes int64, f func(b *testing.B)) {
	b.Run("host", func(b *testing.B) {
		b.SetBytes(bytes)
		f(b)
	})
	b.Run("portable", func(b *testing.B) {
		forcePortable(b)
		b.SetBytes(bytes)
		f(b)
	})
}

func BenchmarkWriteGridChecked(b *testing.B) {
	g := workload.DenseRandom(6, 32, 12004, 1024)
	benchEncoderPaths(b, g.MemBytes(), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := WriteGridChecked(io.Discard, g); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkEncodeBlock(b *testing.B) {
	blk := workload.DenseRandom(7, 1, 10606, 10606).Block(0, 0)
	benchEncoderPaths(b, int64(encodedLen(blk)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += len(EncodeBlock(blk))
		}
	})
}

func BenchmarkReadGrid(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    *matrix.Grid
	}{
		{"dense", workload.DenseRandom(6, 32, 12004, 1024)},
		{"sparse", workload.SparseUniform(6, 2048, 2048, 512, 0.05)},
	} {
		var buf bytes.Buffer
		if err := WriteGridChecked(&buf, tc.g); err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(buf.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := ReadGrid(bytes.NewReader(buf.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				benchSink += got.Rows()
			}
		})
	}
}
