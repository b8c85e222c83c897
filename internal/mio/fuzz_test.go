package mio

import (
	"bytes"
	"testing"

	"dmac/internal/matrix"
	"dmac/internal/workload"
)

// FuzzReadGrid drives ReadGrid with arbitrary bytes: truncations, bit flips
// and random garbage must all produce an error or a valid grid — never a
// panic, and never an allocation the input does not pay for (the reader
// bounds header-implied allocations and grows payload buffers incrementally).
// Valid inputs that parse must re-encode — to the same bytes whether the
// encoder hands out the payload's own memory or converts it through scratch —
// and re-parse to the same matrix.
func FuzzReadGrid(f *testing.F) {
	// Seed corpus: valid v1 and v2 streams over sparse, dense and mixed
	// grids, plus systematic truncations and bit flips of one of them.
	seeds := [][]byte{}
	add := func(b []byte) { seeds = append(seeds, b) }
	sparse := workload.SparseUniform(1, 20, 15, 6, 0.2)
	dense := workload.DenseRandom(2, 9, 9, 4)
	for _, g := range []*matrix.Grid{sparse, dense} {
		var v1, v2 bytes.Buffer
		if err := WriteGrid(&v1, g); err != nil {
			f.Fatal(err)
		}
		if err := WriteGridChecked(&v2, g); err != nil {
			f.Fatal(err)
		}
		add(v1.Bytes())
		add(v2.Bytes())
	}
	base := seeds[0]
	for _, cut := range []int{0, 3, 4, 11, 36, len(base) / 2, len(base) - 1} {
		if cut <= len(base) {
			add(append([]byte(nil), base[:cut]...))
		}
	}
	for _, off := range []int{4, 12, 20, 28, 36, 37, len(base) - 1} {
		if off < len(base) {
			flipped := append([]byte(nil), base...)
			flipped[off] ^= 0x81
			add(flipped)
		}
	}
	add([]byte("DMGR"))
	add([]byte{})
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadGrid(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A parsed grid must be internally consistent and must round-trip
		// through the checked encoder.
		if g.Rows() <= 0 || g.Cols() <= 0 || g.BlockSize() <= 0 {
			t.Fatalf("parsed grid with bad dims %dx%d/bs=%d", g.Rows(), g.Cols(), g.BlockSize())
		}
		var buf bytes.Buffer
		if err := WriteGridChecked(&buf, g); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		var portable bytes.Buffer
		forcePortable(t)
		if err := WriteGridChecked(&portable, g); err != nil {
			t.Fatalf("re-encode, portable path: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), portable.Bytes()) {
			t.Fatal("host and portable encoders disagree")
		}
		g2, err := ReadGrid(&buf)
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if !matrix.GridEqual(g, g2, 0) {
			t.Fatal("re-encoded grid differs")
		}
	})
}
