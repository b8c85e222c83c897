// Package transport is the wire data plane of the cluster: a TCP
// implementation of dist.Transport that moves length-prefixed, CRC32C-checked
// block frames between the coordinator and dmacworker processes, plus the
// worker side serving them. The cost model stays in the dist package — this
// package only moves bytes and measures them.
//
// Framing: every message is one frame,
//
//	u32 length | u8 type | payload
//
// where length covers the type byte and payload. Blocks travel in their mio
// binary encoding with the sender's CRC32C ahead of them; the receiver
// recomputes the checksum before accepting and answers badCRC to request a
// retransmit, so every block hand-off is integrity-checked on the wire
// exactly as the model's verifyTransfer checks it in the simulation.
//
// The data plane is a pipeline. A sender hands a frame's header bytes and
// the blocks' own memory to one vectored write; a receiver reads each block
// body straight into the buffer its store then owns; the coordinator drives
// its destinations side by side with a window of un-acknowledged PUTs on each
// connection.
//
// Broadcasts are rings: the coordinator sends each block once to the first
// hop and every hop forwards the bytes to the next as they arrive, reporting
// the bytes it relayed in its ack, so the coordinator's Wire total covers the
// whole ring without any single link carrying the full fan-out.
package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"dmac/internal/matrix"
	"dmac/internal/mio"
)

// Frame types.
const (
	// fHello introduces the coordinator to a worker (payload: u32 worker
	// index); fHelloOK acknowledges.
	fHello = byte(iota + 1)
	fHelloOK
	// fPut delivers one block (payload: u32 stage | u32 bi | u32 bj |
	// u32 crc | encoding); fPutOK acknowledges, fPutBadCRC requests a
	// retransmit after a checksum mismatch.
	fPut
	fPutOK
	fPutBadCRC
	// fRing delivers a block set to a broadcast ring hop (payload: u32
	// stage | u16 nhops | hops | u32 nblocks | blocks); the hop stores the
	// blocks, forwards the frame minus itself to the next hop, and answers
	// fRingOK (payload: u64 relayed bytes | u64 relayed frames) covering
	// everything downstream.
	fRing
	fRingOK
	// fCollect fetches a worker's 8-byte aggregate for a stage (payload:
	// u32 stage); fCollectOK carries the aggregate.
	fCollect
	fCollectOK
	// fPing/fPong is the heartbeat.
	fPing
	fPong
)

const (
	// maxFrame bounds a frame's length field; anything larger is a corrupt
	// or hostile stream and aborts the connection.
	maxFrame = 1 << 30
	// frameHdrLen is the length prefix plus the type byte.
	frameHdrLen = 5
	// smallPayload is the largest payload of any frame that carries no block
	// (the fRingOK totals) and the size of the fixed fields ahead of a block
	// (a PUT's stage, coordinates and CRC; a ring block's coordinates, CRC
	// and length).
	smallPayload = 16
	// linkReadBuf sizes a connection's buffered reader: frame headers and
	// acknowledgements come through it several to a read, block bodies larger
	// than it are read past it into their own buffers.
	linkReadBuf = 4096
)

// seconds converts a configured timeout.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// link is one framed connection. It is used by one goroutine at a time: the
// holder of the peer or forward mutex, or the connection's serve loop.
type link struct {
	conn net.Conn
	br   *bufio.Reader
	wbuf [frameHdrLen + smallPayload]byte // one outgoing block-less frame
	rbuf [smallPayload]byte               // the fixed fields last read
	hdr  []byte                           // a hop's rebuilt RING header
	vec  net.Buffers                      // a block's fields plus its first bytes, forwarded in one write
}

func newLink(conn net.Conn) *link {
	return &link{conn: conn, br: bufio.NewReaderSize(conn, linkReadBuf)}
}

// writeFrame writes one block-less frame (payload at most smallPayload bytes)
// in a single write and returns the bytes put on the wire.
func (l *link) writeFrame(typ byte, payload []byte) (int64, error) {
	binary.LittleEndian.PutUint32(l.wbuf[:4], uint32(1+len(payload)))
	l.wbuf[4] = typ
	n := frameHdrLen + copy(l.wbuf[frameHdrLen:], payload)
	_, err := l.conn.Write(l.wbuf[:n])
	return int64(n), err
}

// readHeader reads a frame's length and type and returns the type and the
// payload length that follows.
func (l *link) readHeader() (typ byte, payload int, err error) {
	if _, err := io.ReadFull(l.br, l.rbuf[:frameHdrLen]); err != nil {
		return 0, 0, err
	}
	n := binary.LittleEndian.Uint32(l.rbuf[:4])
	if n < 1 || n > maxFrame {
		return 0, 0, fmt.Errorf("transport: frame length %d out of range", n)
	}
	return l.rbuf[4], int(n - 1), nil
}

// readFields reads n (at most smallPayload) bytes into the link's scratch;
// the slice is good until the next readHeader or readFields.
func (l *link) readFields(n int) ([]byte, error) {
	if n > smallPayload {
		return nil, fmt.Errorf("transport: %d-byte payload on a frame that carries no block", n)
	}
	_, err := io.ReadFull(l.br, l.rbuf[:n])
	return l.rbuf[:n], err
}

// readFrame reads one block-less frame — every reply is one — and returns its
// type, payload and size on the wire.
func (l *link) readFrame() (byte, []byte, int64, error) {
	typ, n, err := l.readHeader()
	if err != nil {
		return 0, nil, 0, err
	}
	payload, err := l.readFields(n)
	return typ, payload, int64(frameHdrLen + n), err
}

// frameOut assembles one outgoing PUT or RING frame for a vectored write:
// every header byte of the frame is in hdr, the blocks' bytes stay where they
// are, and bufs lists runs of hdr and views of block memory in wire order.
type frameOut struct {
	hdr  []byte
	bufs net.Buffers
	out  net.Buffers // bufs as WriteTo consumes it; a field so the call allocates nothing
	run  int         // start of the header run not yet listed in bufs
	body int         // block bytes listed in bufs
}

// putHdrCap is the header of a PUT: frame header, fixed fields, block head.
const putHdrCap = frameHdrLen + smallPayload + mio.BlockHeadLen

// ringHdrCap is the most header bytes a RING of the given hops and block
// count needs.
func ringHdrCap(hops []string, blocks int) int {
	n := frameHdrLen + 4 + 2 + 4 + blocks*(smallPayload+mio.BlockHeadLen)
	for _, h := range hops {
		n += 2 + len(h)
	}
	return n
}

// begin starts a frame whose header bytes total at most hdrCap. The capacity
// is reserved now, so runs already listed in bufs never move.
func (f *frameOut) begin(typ byte, hdrCap int) {
	if cap(f.hdr) < hdrCap {
		f.hdr = make([]byte, 0, hdrCap)
	}
	f.hdr = append(f.hdr[:0], 0, 0, 0, 0, typ)
	f.bufs, f.run, f.body = f.bufs[:0], 0, 0
}

func (f *frameOut) u16(v int) { f.hdr = binary.LittleEndian.AppendUint16(f.hdr, uint16(v)) }
func (f *frameOut) u32(v int) { f.hdr = binary.LittleEndian.AppendUint32(f.hdr, uint32(v)) }

// str appends a u16 length and the string (a hop address).
func (f *frameOut) str(s string) {
	f.u16(len(s))
	f.hdr = append(f.hdr, s...)
}

// block appends one block: its coordinates, the CRC32C of its encoding, the
// encoding's length where the frame carries several (RING), and the encoding.
func (f *frameOut) block(bi, bj int, b matrix.Block, withLen bool) {
	f.u32(bi)
	f.u32(bj)
	f.u32(int(mio.BlockChecksum(b)))
	lenAt := len(f.hdr)
	if withLen {
		f.u32(0)
	}
	run := len(f.bufs)
	f.bufs = append(f.bufs, nil) // the header run ending in this block's head, set below
	headLen, bufs, n := mio.BlockSegments(b, f.hdr[len(f.hdr):len(f.hdr)+mio.BlockHeadLen], f.bufs)
	f.hdr = f.hdr[:len(f.hdr)+headLen]
	if withLen {
		binary.LittleEndian.PutUint32(f.hdr[lenAt:], uint32(n))
	}
	bufs[run] = f.hdr[f.run:]
	f.bufs, f.run = bufs, len(f.hdr)
	f.body += n - headLen
}

// writeTo fills in the frame length and sends the frame — in one vectored
// write when w is a TCP connection — returning the bytes put on the wire.
func (f *frameOut) writeTo(w io.Writer) (int64, error) {
	if f.run < len(f.hdr) {
		f.bufs = append(f.bufs, f.hdr[f.run:])
		f.run = len(f.hdr)
	}
	total := len(f.hdr) + f.body
	if total-4 > maxFrame {
		return 0, fmt.Errorf("transport: %d-byte frame exceeds the %d-byte limit", total-4, maxFrame)
	}
	binary.LittleEndian.PutUint32(f.hdr[:4], uint32(total-4))
	f.out = f.bufs
	_, err := f.out.WriteTo(w)
	return int64(total), err
}

// u32Payload encodes a single u32 (fHello worker index, fCollect stage).
func u32Payload(v int) []byte {
	var p [4]byte
	binary.LittleEndian.PutUint32(p[:], uint32(v))
	return p[:]
}

// ringOKPayload encodes an fRingOK payload.
func ringOKPayload(bytes, frames int64) []byte {
	var p [16]byte
	binary.LittleEndian.PutUint64(p[0:8], uint64(bytes))
	binary.LittleEndian.PutUint64(p[8:16], uint64(frames))
	return p[:]
}

// parseRingOK decodes an fRingOK payload.
func parseRingOK(p []byte) (bytes, frames int64, err error) {
	if len(p) != 16 {
		return 0, 0, fmt.Errorf("transport: malformed ring ack (%d bytes)", len(p))
	}
	return int64(binary.LittleEndian.Uint64(p[0:8])), int64(binary.LittleEndian.Uint64(p[8:16])), nil
}
