package mio

import (
	"bytes"
	"errors"
	"testing"

	"dmac/internal/matrix"
	"dmac/internal/workload"
)

// Every single-byte flip anywhere in a checked stream's block region must be
// rejected; flips in the payload or stored CRC surface as ErrChecksum unless
// structural validation catches them first.
func TestCheckedDetectsBitFlips(t *testing.T) {
	g := workload.SparseUniform(6, 20, 20, 10, 0.2)
	var buf bytes.Buffer
	if err := WriteGridChecked(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	const headerLen = 4 + 4*8
	sawChecksumErr := false
	for off := headerLen; off < len(full); off++ {
		bad := append([]byte(nil), full...)
		bad[off] ^= 0x40
		got, err := ReadGrid(bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("flip at offset %d accepted; grid equal to original: %v",
				off, matrix.BitDiff(g, got) == "")
		}
		if errors.Is(err, ErrChecksum) {
			sawChecksumErr = true
		}
	}
	if !sawChecksumErr {
		t.Error("no flip surfaced as ErrChecksum")
	}
}

func TestBlockChecksumMatchesStream(t *testing.T) {
	g := workload.SparseUniform(8, 10, 10, 10, 0.3)
	b := g.Block(0, 0)
	sum := BlockChecksum(b)
	if sum == 0 {
		t.Log("checksum is zero (legal but unusual)")
	}
	if BlockChecksum(b) != sum {
		t.Error("BlockChecksum not deterministic")
	}
	// A value change must change the checksum (CRC32C detects all single-bit
	// and most multi-bit errors; this is a smoke check, not a proof).
	d := b.Dense()
	d.Data[0] += 1
	if BlockChecksum(d) == BlockChecksum(b.Dense()) {
		t.Error("checksum did not change with block contents")
	}
}

// Hostile headers must be rejected before they force large allocations.
func TestHostileHeadersRejected(t *testing.T) {
	mk := func(rows, cols, bs uint64) []byte {
		var buf bytes.Buffer
		buf.WriteString("DMGR")
		for _, v := range []uint64{1, rows, cols, bs} {
			var b [8]byte
			for i := 0; i < 8; i++ {
				b[i] = byte(v >> (8 * i))
			}
			buf.Write(b[:])
		}
		return buf.Bytes()
	}
	cases := []struct {
		name           string
		rows, cols, bs uint64
	}{
		{"zero rows", 0, 5, 2},
		{"dim over maxDim", 1 << 33, 5, 2},
		{"bs over maxDim", 5, 5, 1 << 33},
		{"block-count bomb", maxDim, maxDim, 1},
		{"colptr bomb", 1 << 30, 1 << 30, 1 << 30},
	}
	for _, tc := range cases {
		if _, err := ReadGrid(bytes.NewReader(mk(tc.rows, tc.cols, tc.bs))); err == nil {
			t.Errorf("%s: header %dx%d/bs=%d accepted", tc.name, tc.rows, tc.cols, tc.bs)
		}
	}
}
