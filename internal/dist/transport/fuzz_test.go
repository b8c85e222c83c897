package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"dmac/internal/mio"
	"dmac/internal/workload"
)

// scriptConn is a net.Conn over a fixed input: reads come from in, writes go
// nowhere, deadlines mean nothing. It is how the fuzz target feeds a byte
// string to the worker's frame loop without a socket.
type scriptConn struct{ in io.Reader }

func (c *scriptConn) Read(p []byte) (int, error)       { return c.in.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return nil }
func (c *scriptConn) RemoteAddr() net.Addr             { return nil }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// ackForever is a next hop that acknowledges every ring it is sent.
type ackForever struct{ ack, rest []byte }

func (a *ackForever) Read(p []byte) (int, error) {
	if len(a.rest) == 0 {
		a.rest = a.ack
	}
	n := copy(p, a.rest)
	a.rest = a.rest[n:]
	return n, nil
}

// fuzzSeeds are well-formed frames of every kind the worker decodes, and the
// malformed variants a hostile or broken peer would produce: cut short, with
// lengths that run past the frame or the input, with hop counts that do not
// match the hop list, with a damaged block.
func fuzzSeeds() [][]byte {
	dense := refBlock(1, 2, testBlock(4))
	sparse := refBlock(0, 3, workload.SparseUniform(2, 24, 24, 24, 0.2).Block(0, 0))
	put := refFrame(fPut, putPayload(3, dense.bi, dense.bj, dense.crc, dense.enc))
	ringEnd := rawRing(3, nil, []ringBlock{dense, sparse})
	ringOn := rawRing(3, []string{"next", "after"}, []ringBlock{sparse, dense})
	ringDown := rawRing(3, []string{"down"}, []ringBlock{dense}) // a next hop that cannot be dialed
	seeds := [][]byte{
		put, ringEnd, ringOn, ringDown,
		refFrame(fHello, u32Payload(2)), refFrame(fPing, nil), refFrame(fCollect, u32Payload(3)),
		bytes.Join([][]byte{refFrame(fHello, u32Payload(1)), put, ringOn, put, refFrame(fCollect, u32Payload(3))}, nil),
	}
	mutate := func(frame []byte, f func(b []byte)) {
		b := bytes.Clone(frame)
		f(b)
		seeds = append(seeds, b)
	}
	for _, frame := range [][]byte{put, ringEnd, ringOn} {
		// Truncated: inside the fixed fields, inside a block, one byte short.
		seeds = append(seeds, frame[:7], frame[:len(frame)/2], frame[:len(frame)-1])
		// The frame claims more than follows, up to the limit and past it.
		mutate(frame, func(b []byte) { binary.LittleEndian.PutUint32(b, uint32(len(b))+100) })
		mutate(frame, func(b []byte) { binary.LittleEndian.PutUint32(b, maxFrame) })
		mutate(frame, func(b []byte) { binary.LittleEndian.PutUint32(b, maxFrame+1) })
		// The frame claims less than its blocks need.
		mutate(frame, func(b []byte) { binary.LittleEndian.PutUint32(b, uint32(len(b))/2) })
		// A bit of the last block flipped after it was checksummed.
		mutate(frame, func(b []byte) { b[len(b)-1] ^= 0x40 })
	}
	hopCount := frameHdrLen + 4
	for _, frame := range [][]byte{ringEnd, ringOn} {
		// More hops claimed than listed; every hop claimed away.
		mutate(frame, func(b []byte) { binary.LittleEndian.PutUint16(b[hopCount:], 9) })
		mutate(frame, func(b []byte) { binary.LittleEndian.PutUint16(b[hopCount:], 0xffff) })
		mutate(frame, func(b []byte) { binary.LittleEndian.PutUint16(b[hopCount:], 0) })
	}
	// A hop address, a block count and a block length that run past the frame.
	mutate(ringOn, func(b []byte) { binary.LittleEndian.PutUint16(b[hopCount+2:], 0xfff0) })
	mutate(ringEnd, func(b []byte) { binary.LittleEndian.PutUint32(b[hopCount+2:], 1<<31) })
	mutate(ringEnd, func(b []byte) { binary.LittleEndian.PutUint32(b[hopCount+2+4+12:], 1<<30) })
	return seeds
}

// FuzzFrame feeds arbitrary bytes to the worker's streaming frame decoder —
// the code that faces the socket. Whatever arrives, the worker must not
// panic, must not hold more buffer memory than the bytes it was actually sent
// justify, and must not store a block whose CRC32C does not match.
func FuzzFrame(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	ack := refFrame(fRingOK, ringOKPayload(0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		w := NewWorker(WorkerConfig{MaxBlocks: 8})
		// Hop addresses come from the input: nothing here may open a socket.
		w.dial = func(addr string) (net.Conn, error) {
			if strings.HasPrefix(addr, "down") {
				return nil, errors.New("next hop down")
			}
			return &scriptConn{in: &ackForever{ack: ack}}, nil
		}
		w.serveConn(&scriptConn{in: bytes.NewReader(data)})

		held := 0
		for _, b := range w.free {
			held += cap(b)
		}
		for key, enc := range w.blocks {
			held += cap(enc)
			if !sentWithCRC(data, enc) {
				t.Errorf("block (%d,%d), %d bytes, is stored but the input never carried it under a matching CRC32C", key.bi, key.bj, len(enc))
			}
		}
		if len(w.blocks) > 8 {
			t.Errorf("store holds %d blocks, over MaxBlocks", len(w.blocks))
		}
		// Every buffer held was filled by a body that arrived whole, bar the
		// last, which may have been sized up to one chunk — or one doubling —
		// ahead of a body that stopped coming.
		if limit := 2*len(data) + bodyChunk; held > limit {
			t.Errorf("worker holds %d bytes of block buffers after %d bytes of input, want at most %d", held, len(data), limit)
		}
	})
}

// sentWithCRC reports whether data carries enc right behind a header holding
// its CRC32C: crc | enc in a PUT, crc | length | enc in a RING.
func sentWithCRC(data, enc []byte) bool {
	var crc, crcLen [8]byte
	sum := mio.ChecksumBytes(enc)
	binary.LittleEndian.PutUint32(crc[:4], sum)
	binary.LittleEndian.PutUint32(crcLen[:4], sum)
	binary.LittleEndian.PutUint32(crcLen[4:], uint32(len(enc)))
	for from := 0; from <= len(data)-len(enc); from++ {
		at := bytes.Index(data[from:], enc)
		if at < 0 {
			return false
		}
		at += from
		if bytes.HasSuffix(data[:at], crc[:4]) || bytes.HasSuffix(data[:at], crcLen[:]) {
			return true
		}
		from = at
	}
	return false
}
