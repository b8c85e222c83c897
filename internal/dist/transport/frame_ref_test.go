package transport

import (
	"encoding/binary"
	"fmt"
	"io"
)

// The whole-frame codec the stop-and-wait data plane was built on, kept as
// the reference the pipeline is held to: the frames the pipeline sends, and
// the frames its hops relay, must be the bytes this encoder produces and this
// decoder reads. The tests' fake peers and the fuzz seeds speak it.

// refWriteFrame writes one frame and returns the bytes put on the wire
// (header + type + payload).
func refWriteFrame(w io.Writer, typ byte, payload []byte) (int64, error) {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(1+len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return 0, err
		}
	}
	return int64(5 + len(payload)), nil
}

// refReadFrame reads one frame and returns its type, payload, and size on the
// wire.
func refReadFrame(r io.Reader) (byte, []byte, int64, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < 1 || n > maxFrame {
		return 0, nil, 0, fmt.Errorf("transport: frame length %d out of range", n)
	}
	payload := make([]byte, n-1)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, 0, err
	}
	return hdr[4], payload, int64(5 + len(payload)), nil
}

// putPayload encodes an fPut payload.
func putPayload(stage, bi, bj int, crc uint32, enc []byte) []byte {
	p := make([]byte, 16+len(enc))
	binary.LittleEndian.PutUint32(p[0:4], uint32(stage))
	binary.LittleEndian.PutUint32(p[4:8], uint32(bi))
	binary.LittleEndian.PutUint32(p[8:12], uint32(bj))
	binary.LittleEndian.PutUint32(p[12:16], crc)
	copy(p[16:], enc)
	return p
}

// parsePut decodes an fPut payload.
func parsePut(p []byte) (stage, bi, bj int, crc uint32, enc []byte, err error) {
	if len(p) < 16 {
		return 0, 0, 0, 0, nil, fmt.Errorf("transport: put frame too short (%d bytes)", len(p))
	}
	return int(binary.LittleEndian.Uint32(p[0:4])),
		int(binary.LittleEndian.Uint32(p[4:8])),
		int(binary.LittleEndian.Uint32(p[8:12])),
		binary.LittleEndian.Uint32(p[12:16]),
		p[16:], nil
}

// ringBlock is one block of a ring frame in its wire form.
type ringBlock struct {
	bi, bj int
	crc    uint32
	enc    []byte
}

// ringPayload encodes an fRing payload: the remaining hop addresses and the
// block set.
func ringPayload(stage int, hops []string, blocks []ringBlock) []byte {
	n := 4 + 2
	for _, h := range hops {
		n += 2 + len(h)
	}
	n += 4
	for _, b := range blocks {
		n += 16 + len(b.enc)
	}
	p := make([]byte, 0, n)
	var u4 [4]byte
	var u2 [2]byte
	binary.LittleEndian.PutUint32(u4[:], uint32(stage))
	p = append(p, u4[:]...)
	binary.LittleEndian.PutUint16(u2[:], uint16(len(hops)))
	p = append(p, u2[:]...)
	for _, h := range hops {
		binary.LittleEndian.PutUint16(u2[:], uint16(len(h)))
		p = append(p, u2[:]...)
		p = append(p, h...)
	}
	binary.LittleEndian.PutUint32(u4[:], uint32(len(blocks)))
	p = append(p, u4[:]...)
	for _, b := range blocks {
		binary.LittleEndian.PutUint32(u4[:], uint32(b.bi))
		p = append(p, u4[:]...)
		binary.LittleEndian.PutUint32(u4[:], uint32(b.bj))
		p = append(p, u4[:]...)
		binary.LittleEndian.PutUint32(u4[:], b.crc)
		p = append(p, u4[:]...)
		binary.LittleEndian.PutUint32(u4[:], uint32(len(b.enc)))
		p = append(p, u4[:]...)
		p = append(p, b.enc...)
	}
	return p
}

// parseRing decodes an fRing payload.
func parseRing(p []byte) (stage int, hops []string, blocks []ringBlock, err error) {
	bad := func() (int, []string, []ringBlock, error) {
		return 0, nil, nil, fmt.Errorf("transport: malformed ring frame")
	}
	if len(p) < 6 {
		return bad()
	}
	stage = int(binary.LittleEndian.Uint32(p[0:4]))
	nh := int(binary.LittleEndian.Uint16(p[4:6]))
	off := 6
	for i := 0; i < nh; i++ {
		if off+2 > len(p) {
			return bad()
		}
		l := int(binary.LittleEndian.Uint16(p[off : off+2]))
		off += 2
		if off+l > len(p) {
			return bad()
		}
		hops = append(hops, string(p[off:off+l]))
		off += l
	}
	if off+4 > len(p) {
		return bad()
	}
	nb := int(binary.LittleEndian.Uint32(p[off : off+4]))
	off += 4
	for i := 0; i < nb; i++ {
		if off+16 > len(p) {
			return bad()
		}
		b := ringBlock{
			bi:  int(binary.LittleEndian.Uint32(p[off : off+4])),
			bj:  int(binary.LittleEndian.Uint32(p[off+4 : off+8])),
			crc: binary.LittleEndian.Uint32(p[off+8 : off+12]),
		}
		l := int(binary.LittleEndian.Uint32(p[off+12 : off+16]))
		off += 16
		if off+l > len(p) {
			return bad()
		}
		b.enc = p[off : off+l]
		off += l
		blocks = append(blocks, b)
	}
	return stage, hops, blocks, nil
}
