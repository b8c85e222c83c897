package mio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"dmac/internal/matrix"
)

// Binary grid format, little-endian:
//
//	magic "DMGR" | version u32 | rows u64 | cols u64 | blockSize u64 |
//	then per block in row-major block order:
//	  kind u8 (0 dense, 1 CSC)
//	  dense: rows*cols f64
//	  CSC:   nnz u64, colPtr (cols+1) u32, rowIdx nnz u32, values nnz f64
//	  version 2 only: crc u32 — CRC32C over the block's kind byte and payload
//
// The format round-trips block representations and values exactly, bit for
// bit: NaN payloads, infinities and -0 are values, and the reader checks
// structure, not values. Version 2 adds a per-block CRC32C so checkpointed
// session variables detect on-disk corruption end to end: a reader of a
// version-2 stream verifies every block before trusting it and fails with
// ErrChecksum on a mismatch.

const (
	binaryMagic = "DMGR"
	// binaryVersion is the legacy unchecksummed layout.
	binaryVersion = 1
	// binaryVersionChecked appends a CRC32C to every block.
	binaryVersionChecked = 2
)

// Reader hardening bounds. A header is attacker-controlled until its blocks
// verify, so everything the reader allocates eagerly from header fields is
// bounded before the allocation happens; payload-sized buffers grow
// incrementally with the bytes actually read, so a lying header costs memory
// proportional to the real input, never to its claims.
const (
	// maxDim keeps int conversions of dimensions safe on 32-bit platforms.
	maxDim = 1<<31 - 1
	// maxEmptyGridBytes caps the estimated footprint of the empty grid a
	// header implies (block headers plus per-block column-pointer arrays):
	// the reader allocates the grid's slot array before any payload byte is
	// validated, and a payload of empty blocks builds the rest.
	maxEmptyGridBytes = 1 << 28
	// maxBlocks caps the block count a header may imply: constructing the
	// empty grid costs time and memory per block, and a hostile header must
	// not buy millions of block allocations with 36 bytes of input.
	maxBlocks = 1 << 20
	// emptyBlockOverheadBytes approximates the fixed cost of one empty block
	// (interface header, struct, slice headers).
	emptyBlockOverheadBytes = 96
)

// ErrChecksum reports a block whose stored CRC32C does not match its
// payload: the stream was corrupted after it was written. Recovery ladders
// test for it with errors.Is to distinguish corruption from truncation.
var ErrChecksum = errors.New("mio: block checksum mismatch")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// BlockChecksum returns the CRC32C of a block's binary encoding — the same
// checksum a version-2 stream stores after the block. The distributed
// runtime uses it to verify blocks at shuffle hand-off without serializing
// them to disk.
func BlockChecksum(b matrix.Block) uint32 {
	scratch := encScratch.Get().(*[encChunkBytes]byte)
	defer encScratch.Put(scratch)
	cw := crcWriter{w: io.Discard}
	// writeBlock only fails on writer errors; Discard never errors.
	_ = writeBlock(&cw, scratch[:], b)
	return cw.sum
}

// EncodeBlock returns the binary encoding of one block (kind byte plus
// payload) — the bytes a shuffle hand-off of the block would move, and the
// bytes BlockChecksum covers.
func EncodeBlock(b matrix.Block) []byte {
	scratch := encScratch.Get().(*[encChunkBytes]byte)
	defer encScratch.Put(scratch)
	buf := bytes.NewBuffer(make([]byte, 0, encodedLen(b)))
	_ = writeBlock(buf, scratch[:], b)
	return buf.Bytes()
}

// BlockHeadLen is the most head bytes BlockSegments writes: the kind byte and
// a CSC block's entry count.
const BlockHeadLen = 9

// BlockSegments returns the binary encoding of b — the bytes EncodeBlock
// returns and BlockChecksum covers — in pieces for a vectored write: the first
// headLen bytes are encoded into head (at least BlockHeadLen long), the rest
// are appended to segs in stream order, and n is the length of the whole
// encoding. On a little-endian host the appended segments are the block's own
// arrays, so nothing is copied; they alias the block, are read-only, and are
// dead once b is next written. A big-endian host gets headLen 0 and one
// segment holding the encoded copy.
func BlockSegments(b matrix.Block, head []byte, segs [][]byte) (headLen int, out [][]byte, n int) {
	if !nativeLE {
		enc := EncodeBlock(b)
		return 0, append(segs, enc), len(enc)
	}
	t, ok := b.(*matrix.CSCBlock)
	if !ok {
		// Unknown implementations serialize densely, as in writeBlock.
		head[0] = 0
		data := float64Bytes(b.Dense().Data)
		return 1, append(segs, data), 1 + len(data)
	}
	head[0] = 1
	binary.LittleEndian.PutUint64(head[1:], uint64(t.NNZ()))
	segs = append(segs, int32Bytes(t.ColPtr), int32Bytes(t.RowIdx), float64Bytes(t.Values))
	return BlockHeadLen, segs, encodedLen(b)
}

// encodedLen returns the length of a block's binary encoding.
func encodedLen(b matrix.Block) int {
	if t, ok := b.(*matrix.CSCBlock); ok {
		return 1 + 8 + 4*len(t.ColPtr) + 4*len(t.RowIdx) + 8*len(t.Values)
	}
	return 1 + 8*b.Rows()*b.Cols()
}

// ChecksumBytes returns the CRC32C of raw bytes, matching BlockChecksum over
// a block's EncodeBlock encoding.
func ChecksumBytes(p []byte) uint32 {
	return crc32.Checksum(p, castagnoli)
}

// WriteGrid serializes a grid to the legacy (version 1, unchecksummed)
// binary format.
func WriteGrid(w io.Writer, g *matrix.Grid) error {
	return writeGrid(w, g, binaryVersion)
}

// WriteGridChecked serializes a grid to the version-2 format with a CRC32C
// per block, the layout checkpoints use: a reader verifies every block
// against its stored checksum and surfaces corruption as ErrChecksum.
func WriteGridChecked(w io.Writer, g *matrix.Grid) error {
	return writeGrid(w, g, binaryVersionChecked)
}

func writeGrid(w io.Writer, g *matrix.Grid, version uint64) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var word [8]byte
	hdr := []uint64{version, uint64(g.Rows()), uint64(g.Cols()), uint64(g.BlockSize())}
	for _, v := range hdr {
		binary.LittleEndian.PutUint64(word[:], v)
		if _, err := bw.Write(word[:]); err != nil {
			return err
		}
	}
	scratch := encScratch.Get().(*[encChunkBytes]byte)
	defer encScratch.Put(scratch)
	cw := crcWriter{w: bw}
	for bi := 0; bi < g.BlockRows(); bi++ {
		for bj := 0; bj < g.BlockCols(); bj++ {
			if version != binaryVersionChecked {
				if err := writeBlock(bw, scratch[:], g.Block(bi, bj)); err != nil {
					return err
				}
				continue
			}
			cw.sum = 0
			if err := writeBlock(&cw, scratch[:], g.Block(bi, bj)); err != nil {
				return err
			}
			binary.LittleEndian.PutUint32(word[:4], cw.sum)
			if _, err := bw.Write(word[:4]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// crcWriter passes writes through to w and keeps their running CRC32C.
type crcWriter struct {
	w   io.Writer
	sum uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.sum = crc32.Update(c.sum, castagnoli, p)
	return c.w.Write(p)
}

// encChunkBytes sizes the pooled scratch buffer block headers — and, on a
// big-endian host, payloads — are encoded through: large enough that the
// per-Write overhead vanishes, small enough to stay in L1/L2 whatever the
// block size.
const encChunkBytes = 32 << 10

var encScratch = sync.Pool{New: func() any { return new([encChunkBytes]byte) }}

// nativePieceBytes bounds one Write of a payload's own bytes (see native.go):
// a checksummed stream reads every piece twice, once for the CRC and once for
// the copy or system call behind it, and the second read should hit cache.
const nativePieceBytes = 256 << 10

// writeBlock encodes one block (kind byte plus payload) through buf, an
// encScratch buffer, so encoding allocates nothing however large the block
// is.
func writeBlock(w io.Writer, buf []byte, b matrix.Block) error {
	t, ok := b.(*matrix.CSCBlock)
	if !ok {
		// Unknown implementations serialize densely.
		buf[0] = 0
		if _, err := w.Write(buf[:1]); err != nil {
			return err
		}
		return writeFloat64s(w, buf, b.Dense().Data)
	}
	buf[0] = 1
	binary.LittleEndian.PutUint64(buf[1:], uint64(t.NNZ()))
	if _, err := w.Write(buf[:9]); err != nil {
		return err
	}
	if err := writeInt32s(w, buf, t.ColPtr); err != nil {
		return err
	}
	if err := writeInt32s(w, buf, t.RowIdx); err != nil {
		return err
	}
	return writeFloat64s(w, buf, t.Values)
}

// writeFloat64s writes vals little-endian: their own bytes where the host
// stores them that way, else converted len(buf)/8 at a time through buf. The
// stream is the same byte for byte.
func writeFloat64s(w io.Writer, buf []byte, vals []float64) error {
	if nativeLE {
		return writePieces(w, float64Bytes(vals))
	}
	for len(vals) > 0 {
		n := minInt(len(vals), len(buf)/8)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		if _, err := w.Write(buf[:8*n]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

// writeInt32s is writeFloat64s for int32s.
func writeInt32s(w io.Writer, buf []byte, vals []int32) error {
	if nativeLE {
		return writePieces(w, int32Bytes(vals))
	}
	for len(vals) > 0 {
		n := minInt(len(vals), len(buf)/4)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
		}
		if _, err := w.Write(buf[:4*n]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

// writePieces writes p at most nativePieceBytes at a time.
func writePieces(w io.Writer, p []byte) error {
	for len(p) > 0 {
		n := minInt(len(p), nativePieceBytes)
		if _, err := w.Write(p[:n]); err != nil {
			return err
		}
		p = p[n:]
	}
	return nil
}

// ReadGrid deserializes a grid written by WriteGrid or WriteGridChecked
// (version dispatch is automatic). Corrupt input of any shape — truncation,
// bit flips, hostile headers — yields an error, never a panic, and never an
// allocation larger than the input justifies; checksum mismatches in a
// version-2 stream are reported as ErrChecksum.
func ReadGrid(r io.Reader) (*matrix.Grid, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("mio: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("mio: bad magic %q", magic)
	}
	var version, rows, cols, bs uint64
	for _, p := range []*uint64{&version, &rows, &cols, &bs} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("mio: reading header: %w", err)
		}
	}
	if version != binaryVersion && version != binaryVersionChecked {
		return nil, fmt.Errorf("mio: unsupported version %d", version)
	}
	if rows == 0 || cols == 0 || bs == 0 || rows > maxDim || cols > maxDim || bs > maxDim {
		return nil, fmt.Errorf("mio: implausible dimensions %dx%d/bs=%d", rows, cols, bs)
	}
	if err := boundEmptyGrid(rows, cols, bs); err != nil {
		return nil, err
	}
	g := matrix.NewGridSlots(int(rows), int(cols), int(bs))
	checked := version == binaryVersionChecked
	for bi := 0; bi < g.BlockRows(); bi++ {
		for bj := 0; bj < g.BlockCols(); bj++ {
			br2, bc2 := g.BlockDims(bi, bj)
			blk, err := readBlockChecked(br, br2, bc2, checked)
			if err != nil {
				return nil, fmt.Errorf("mio: block (%d,%d): %w", bi, bj, err)
			}
			g.SetBlock(bi, bj, blk)
		}
	}
	return g.Filled(), nil
}

// boundEmptyGrid rejects headers whose empty grid alone (before any payload
// is read) would exceed maxEmptyGridBytes: one empty CSC block per grid cell,
// each carrying a (blockCols+1)-entry column-pointer array.
func boundEmptyGrid(rows, cols, bs uint64) error {
	brows := (rows + bs - 1) / bs
	bcols := (cols + bs - 1) / bs
	blocks := brows * bcols
	if brows > 0 && (blocks/brows != bcols || blocks > maxBlocks) {
		return fmt.Errorf("mio: implausible block count %dx%d", brows, bcols)
	}
	// Per block row: bcols block overheads plus column pointers covering all
	// cols (4 bytes each) plus one extra pointer per block.
	perBlockRow := bcols*emptyBlockOverheadBytes + 4*(cols+bcols)
	if brows > 0 && perBlockRow > maxEmptyGridBytes/brows {
		return fmt.Errorf("mio: header implies > %d bytes of empty grid (%dx%d/bs=%d)",
			maxEmptyGridBytes, rows, cols, bs)
	}
	return nil
}

// readBlockChecked reads one block, verifying its trailing CRC32C when
// checked is set.
func readBlockChecked(r io.Reader, rows, cols int, checked bool) (matrix.Block, error) {
	if !checked {
		return readBlock(r, rows, cols)
	}
	h := crc32.New(castagnoli)
	blk, err := readBlock(io.TeeReader(r, h), rows, cols)
	if err != nil {
		return nil, err
	}
	var want uint32
	if err := binary.Read(r, binary.LittleEndian, &want); err != nil {
		return nil, fmt.Errorf("reading checksum: %w", err)
	}
	if got := h.Sum32(); got != want {
		return nil, fmt.Errorf("%w: got %08x, stored %08x", ErrChecksum, got, want)
	}
	return blk, nil
}

// readChunkElems bounds how many elements each incremental read step reads,
// so buffer growth tracks bytes actually present in the input.
const readChunkElems = 64 * 1024

// readFloat64s reads n little-endian float64s into an array of exactly n,
// which the caller keeps as its block's own (readLE).
func readFloat64s(r io.Reader, n int) ([]float64, error) {
	return readLE(r, n, 8, float64Bytes, func(b []byte) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	})
}

// readInt32s is readFloat64s for little-endian int32s.
func readInt32s(r io.Reader, n int) ([]int32, error) {
	return readLE(r, n, 4, int32Bytes, func(b []byte) int32 {
		return int32(binary.LittleEndian.Uint32(b))
	})
}

// readLE reads n little-endian values of size bytes each a chunk at a time,
// straight into the returned array on a little-endian host (through native,
// the array's memory as bytes) and through decode otherwise. The array
// starts at one chunk and doubles, never past n, as chunks arrive: a lying
// header cannot force an allocation larger than a chunk and twice the real
// input, and the array ends exactly n long.
func readLE[T float64 | int32](r io.Reader, n, size int, native func([]T) []byte, decode func([]byte) T) ([]T, error) {
	out := make([]T, minInt(n, readChunkElems))
	var buf []byte
	for done := 0; done < n; {
		if done == len(out) {
			grown := make([]T, minInt(n, 2*len(out)))
			copy(grown, out)
			out = grown
		}
		dst := out[done:minInt(len(out), done+readChunkElems)]
		if nativeLE {
			if _, err := io.ReadFull(r, native(dst)); err != nil {
				return nil, err
			}
		} else {
			if buf == nil {
				buf = make([]byte, size*minInt(n, readChunkElems))
			}
			if _, err := io.ReadFull(r, buf[:size*len(dst)]); err != nil {
				return nil, err
			}
			for i := range dst {
				dst[i] = decode(buf[size*i:])
			}
		}
		done += len(dst)
	}
	return out, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func readBlock(r io.Reader, rows, cols int) (matrix.Block, error) {
	kind := make([]byte, 1)
	if _, err := io.ReadFull(r, kind); err != nil {
		return nil, err
	}
	// Element counts are computed in uint64 and bounded to int32 range so
	// block-local int arithmetic cannot overflow on 32-bit platforms.
	elems := uint64(rows) * uint64(cols)
	if elems > math.MaxInt32 {
		return nil, fmt.Errorf("block %dx%d too large", rows, cols)
	}
	switch kind[0] {
	case 0:
		data, err := readFloat64s(r, int(elems))
		if err != nil {
			return nil, err
		}
		return matrix.NewDenseData(rows, cols, data), nil
	case 1:
		var nnz uint64
		if err := binary.Read(r, binary.LittleEndian, &nnz); err != nil {
			return nil, err
		}
		if nnz > elems {
			return nil, fmt.Errorf("nnz %d exceeds block capacity", nnz)
		}
		colPtr, err := readInt32s(r, cols+1)
		if err != nil {
			return nil, err
		}
		rowIdx, err := readInt32s(r, int(nnz))
		if err != nil {
			return nil, err
		}
		values, err := readFloat64s(r, int(nnz))
		if err != nil {
			return nil, err
		}
		// Validate structure before trusting it: the arrays become the
		// block's own, so they must be what the writer writes, each column's
		// rows in range and strictly increasing.
		if colPtr[0] != 0 || colPtr[cols] != int32(nnz) {
			return nil, fmt.Errorf("corrupt column pointers")
		}
		for c := 0; c < cols; c++ {
			if colPtr[c] > colPtr[c+1] {
				return nil, fmt.Errorf("non-monotonic column pointers")
			}
		}
		for c := 0; c < cols; c++ {
			prev := int32(-1)
			for _, ri := range rowIdx[colPtr[c]:colPtr[c+1]] {
				if ri < 0 || int(ri) >= rows {
					return nil, fmt.Errorf("row index %d out of range", ri)
				}
				if ri <= prev {
					return nil, fmt.Errorf("column %d: row %d after row %d", c, ri, prev)
				}
				prev = ri
			}
		}
		return matrix.NewCSCData(rows, cols, colPtr, rowIdx, values), nil
	default:
		return nil, fmt.Errorf("unknown block kind %d", kind[0])
	}
}
