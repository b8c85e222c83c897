package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"dmac/internal/mio"
)

// WorkerConfig tunes a worker process's transport endpoint.
type WorkerConfig struct {
	// IOTimeoutSec bounds each frame read/write on an accepted connection.
	// Defaults to 10 s. An idle coordinator connection is allowed to sit
	// quietly — the read timeout applies per frame once bytes start
	// arriving, and heartbeats keep the link warm in between.
	IOTimeoutSec float64
	// DialTimeoutSec bounds a ring-forward dial to the next hop. Defaults
	// to 2 s.
	DialTimeoutSec float64
	// MaxBlocks caps the worker's block store; the store keeps the newest
	// stage's blocks (older stages are dropped when a new stage arrives).
	// Defaults to 8192.
	MaxBlocks int
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.IOTimeoutSec <= 0 {
		c.IOTimeoutSec = 10
	}
	if c.DialTimeoutSec <= 0 {
		c.DialTimeoutSec = 2
	}
	if c.MaxBlocks <= 0 {
		c.MaxBlocks = 8192
	}
	return c
}

// blockKey identifies a stored block.
type blockKey struct{ bi, bj int }

// Receive-buffer bounds.
const (
	// bodyChunk is the most a block buffer is allocated ahead of the bytes
	// that have arrived: a fresh buffer starts at most this long and doubles
	// as the body fills it, so a frame that lies about its length costs
	// memory in proportion to what it actually sends.
	bodyChunk = 64 << 10
	// freeBuffers and freeBytes bound the worker's free list of block
	// buffers — enough to hand a steady stream of stages their buffers back,
	// small enough that an idle worker holds on to little.
	freeBuffers = 64
	freeBytes   = 32 << 20
)

// fwdLink is the connection to one next hop. mu is held for one ring's whole
// relay — header, blocks and the downstream acknowledgement — so two rings
// through this worker never interleave frames on it.
type fwdLink struct {
	addr string
	mu   sync.Mutex
	link *link // nil until dialed and after a failure
}

// Worker is the worker-process side of the TCP transport: it accepts
// coordinator and ring-forward connections, verifies every incoming block
// against its CRC32C (answering badCRC to request a retransmit), stores the
// newest stage's blocks, forwards ring broadcasts to the next hop as they
// arrive, and answers collects and heartbeats.
type Worker struct {
	cfg WorkerConfig
	ln  net.Listener
	// dial opens a ring-forward connection. It is net.DialTimeout except
	// under the fuzz target, which must never open a socket to an address
	// taken from its input.
	dial func(addr string) (net.Conn, error)

	mu        sync.Mutex
	index     int // worker index announced by the coordinator's hello
	stage     int
	blocks    map[blockKey][]byte // each buffer is owned by the store
	free      [][]byte            // buffers of dropped stages and overwritten keys, for reuse
	freeTotal int                 // sum of cap over free
	fwd       map[string]*fwdLink // ring-forward connections by next-hop address
	conns     map[net.Conn]bool   // accepted and forward connections, for Close
	closed    bool
}

// NewWorker creates a worker endpoint (not yet listening).
func NewWorker(cfg WorkerConfig) *Worker {
	cfg = cfg.withDefaults()
	return &Worker{
		cfg: cfg,
		dial: func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, seconds(cfg.DialTimeoutSec))
		},
		index:  -1,
		blocks: make(map[blockKey][]byte),
		fwd:    make(map[string]*fwdLink),
		conns:  make(map[net.Conn]bool),
	}
}

// Listen binds the worker to addr ("host:port", port 0 for ephemeral) and
// returns the bound address.
func (w *Worker) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	w.ln = ln
	return ln.Addr(), nil
}

// Addr returns the bound address (nil before Listen).
func (w *Worker) Addr() net.Addr {
	if w.ln == nil {
		return nil
	}
	return w.ln.Addr()
}

// Serve accepts and serves connections until Close. Each connection gets its
// own goroutine; per-frame deadlines bound every read and write.
func (w *Worker) Serve() error {
	if w.ln == nil {
		return errors.New("transport: worker Serve before Listen")
	}
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			w.mu.Lock()
			closed := w.closed
			w.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if !w.track(conn) {
			conn.Close()
			return nil
		}
		go w.serveConn(conn)
	}
}

// track registers a live connection for Close; false means the worker has
// closed and the caller must drop the connection itself.
func (w *Worker) track(conn net.Conn) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	w.conns[conn] = true
	return true
}

// drop closes a connection and forgets it.
func (w *Worker) drop(conn net.Conn) {
	conn.Close()
	w.mu.Lock()
	delete(w.conns, conn)
	w.mu.Unlock()
}

// Close stops the listener and drops all connections.
func (w *Worker) Close() error {
	w.mu.Lock()
	w.closed = true
	for c := range w.conns {
		c.Close()
		delete(w.conns, c)
	}
	w.mu.Unlock()
	if w.ln != nil {
		return w.ln.Close()
	}
	return nil
}

// BlockCount returns how many blocks of the current stage the worker holds
// (the aggregate a collect reports).
func (w *Worker) BlockCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.blocks)
}

// ioTimeout is the per-frame I/O budget.
func (w *Worker) ioTimeout() time.Duration { return seconds(w.cfg.IOTimeoutSec) }

// ioDeadline returns the per-frame deadline.
func (w *Worker) ioDeadline() time.Time {
	return time.Now().Add(w.ioTimeout())
}

// serveConn is one connection's frame loop. A read error (including the
// peer going away) ends the loop; the coordinator re-dials as needed.
func (w *Worker) serveConn(conn net.Conn) {
	defer w.drop(conn)
	l := newLink(conn)
	for {
		// The frame gap between requests is unbounded (an idle but live
		// coordinator); the deadline applies once the frame header arrives.
		conn.SetReadDeadline(time.Time{})
		typ, n, err := l.readHeader()
		if err != nil {
			return
		}
		conn.SetDeadline(w.ioDeadline())
		if err := w.handle(l, typ, n); err != nil {
			return
		}
	}
}

// handle reads the n-byte payload of one frame as it arrives, acts on it and
// writes the reply. An error ends the connection.
func (w *Worker) handle(l *link, typ byte, n int) error {
	switch typ {
	case fHello:
		p, err := l.readFields(n)
		if err != nil {
			return err
		}
		if len(p) == 4 {
			w.mu.Lock()
			w.index = int(binary.LittleEndian.Uint32(p))
			w.mu.Unlock()
		}
		_, err = l.writeFrame(fHelloOK, nil)
		return err
	case fPing:
		if _, err := l.readFields(n); err != nil {
			return err
		}
		_, err := l.writeFrame(fPong, nil)
		return err
	case fPut:
		return w.put(l, n)
	case fRing:
		return w.ring(l, n)
	case fCollect:
		if _, err := l.readFields(n); err != nil {
			return err
		}
		var agg [8]byte
		binary.LittleEndian.PutUint32(agg[:4], uint32(w.BlockCount()))
		_, err := l.writeFrame(fCollectOK, agg[:])
		return err
	default:
		return fmt.Errorf("transport: unknown frame type %d", typ)
	}
}

// frameIn is the unread payload of the frame being decoded. Every length the
// stream claims is taken out of left before the bytes are read or a buffer
// is sized for them, so nothing inside a frame can ask for more than the
// frame itself holds.
type frameIn struct {
	*link
	left int
}

// fields reads the next n (at most smallPayload) payload bytes.
func (f *frameIn) fields(n int) ([]byte, error) {
	if n > f.left {
		return nil, fmt.Errorf("transport: frame %d bytes short", n-f.left)
	}
	f.left -= n
	return f.readFields(n)
}

// put stores the block of one PUT frame and acknowledges it.
func (w *Worker) put(l *link, n int) error {
	in := frameIn{l, n}
	p, err := in.fields(smallPayload)
	if err != nil {
		return err
	}
	le := binary.LittleEndian
	stage, bi, bj, crc := int(le.Uint32(p[0:4])), int(le.Uint32(p[4:8])), int(le.Uint32(p[8:12])), le.Uint32(p[12:16])
	enc, err := w.readBody(l, in.left, nil, nil)
	if err != nil {
		return err
	}
	if mio.ChecksumBytes(enc) != crc {
		// Damaged in transit: refuse and let the sender retransmit.
		w.recycle(enc)
		_, err := l.writeFrame(fPutBadCRC, nil)
		return err
	}
	w.store(stage, bi, bj, enc)
	_, err = l.writeFrame(fPutOK, nil)
	return err
}

// hop reads the next entry of a RING's hop list and appends it to dst as it
// came: u16 length, then the address.
func (f *frameIn) hop(dst []byte) ([]byte, error) {
	p, err := f.fields(2)
	if err != nil {
		return dst, err
	}
	alen := int(binary.LittleEndian.Uint16(p))
	if alen > f.left {
		return dst, fmt.Errorf("transport: ring hop address runs %d bytes past its frame", alen-f.left)
	}
	f.left -= alen
	at := len(dst) + 2
	dst = slices.Grow(append(dst, p...), alen)[:at+alen]
	_, err = io.ReadFull(f.br, dst[at:])
	return dst, err
}

// ring serves one RING frame by cut-through: it parses the hop list, sends
// the next hop its header at once, then passes each block's bytes on while
// they are still arriving. A block is stored only after its CRC32C verified;
// the upstream acknowledgement, carrying the byte and frame totals relayed
// from this hop down, waits for the downstream one. A damaged block is not
// stored: the hop cuts its forward connection — the hops below were sent the
// same bytes and refuse the block themselves, or see the stream end; either
// way none acknowledges — reads the frame out and answers badCRC.
func (w *Worker) ring(up *link, n int) error {
	in := frameIn{up, n}
	p, err := in.fields(6)
	if err != nil {
		return err
	}
	le := binary.LittleEndian
	stage, nhops := int(le.Uint32(p[0:4])), int(le.Uint16(p[4:6]))
	if nhops == 0 {
		_, err := w.relay(&in, stage, nil, 0, 0)
		return err
	}
	// The first hop listed is the next one; the frame it gets is this one
	// less that entry.
	if up.hdr, err = in.hop(up.hdr[:0]); err != nil {
		return err
	}
	fl, err := w.forwardLink(up.hdr[2:])
	if err != nil {
		// The next hop is unreachable: drop the connection so the
		// coordinator sees the ring break and recovers.
		return fmt.Errorf("transport: ring forward: %w", err)
	}
	defer fl.mu.Unlock()
	down := fl.link
	downSent := int64(frameHdrLen + n - len(up.hdr))
	down.hdr = le.AppendUint32(down.hdr[:0], uint32(downSent-4))
	down.hdr = append(down.hdr, fRing)
	down.hdr = le.AppendUint32(down.hdr, uint32(stage))
	down.hdr = le.AppendUint16(down.hdr, uint16(nhops-1))
	for i := 1; i < nhops; i++ {
		if down.hdr, err = in.hop(down.hdr); err != nil {
			return err
		}
	}
	intact, err := w.relay(&in, stage, down, nhops, downSent)
	if !intact {
		w.dropForward(fl)
	}
	return err
}

// relay is the part of a RING from the block count on. With a next hop, down
// holds the downstream header so far in its hdr, nhops counts the hops still
// to be reached and downSent is the size of the downstream frame; intact
// reports that the forward connection ended the relay on a frame boundary,
// its acknowledgement read.
func (w *Worker) relay(in *frameIn, stage int, down *link, nhops int, downSent int64) (intact bool, err error) {
	up := in.link
	p, err := in.fields(4)
	if err != nil {
		return false, err
	}
	le := binary.LittleEndian
	nblocks := int(le.Uint32(p))
	if down != nil {
		down.hdr = append(down.hdr, p...)
		down.conn.SetDeadline(w.ioDeadline())
		if _, err := down.conn.Write(down.hdr); err != nil {
			return false, fmt.Errorf("transport: ring forward: %w", err)
		}
	}
	for i := 0; i < nblocks; i++ {
		p, err := in.fields(smallPayload)
		if err != nil {
			return false, err
		}
		bi, bj, crc, blen := int(le.Uint32(p[0:4])), int(le.Uint32(p[4:8])), le.Uint32(p[8:12]), int(le.Uint32(p[12:16]))
		if blen > in.left {
			return false, fmt.Errorf("transport: ring block runs %d bytes past its frame", blen-in.left)
		}
		in.left -= blen
		// One I/O budget per block, as the coordinator gives each PUT.
		up.conn.SetDeadline(w.ioDeadline())
		if down != nil {
			down.conn.SetDeadline(w.ioDeadline())
		}
		enc, err := w.readBody(up, blen, down, p)
		if err != nil {
			return false, err
		}
		if mio.ChecksumBytes(enc) != crc {
			w.recycle(enc)
			if _, err := io.CopyN(io.Discard, up.br, int64(in.left)); err != nil {
				return false, err
			}
			up.conn.SetDeadline(w.ioDeadline())
			_, err := up.writeFrame(fPutBadCRC, nil)
			return false, err
		}
		w.store(stage, bi, bj, enc)
	}
	if in.left != 0 {
		return false, fmt.Errorf("transport: %d bytes after the last ring block", in.left)
	}

	var relayedBytes, relayedFrames int64
	if down != nil {
		// The downstream acknowledgement covers every hop still to go.
		down.conn.SetDeadline(time.Now().Add(ringBudget(nhops, w.ioTimeout())))
		typ, payload, got, err := down.readFrame()
		if err != nil {
			return false, fmt.Errorf("transport: ring forward: %w", err)
		}
		if typ != fRingOK {
			return false, fmt.Errorf("transport: ring ack type %d", typ)
		}
		downBytes, downFrames, err := parseRingOK(payload)
		if err != nil {
			return false, err
		}
		relayedBytes, relayedFrames = downSent+got+downBytes, 2+downFrames
	}
	up.conn.SetDeadline(w.ioDeadline())
	_, err = up.writeFrame(fRingOK, ringOKPayload(relayedBytes, relayedFrames))
	return true, err
}

// readBody reads an n-byte block body from up into a buffer the caller then
// owns. With a next hop it is a tee: whatever a read returns goes straight to
// down — ahead of the first piece, the block's fixed fields pre — so a large
// block is already leaving while it is still arriving.
func (w *Worker) readBody(up *link, n int, down *link, pre []byte) ([]byte, error) {
	buf := w.takeBuffer(n)
	if n == 0 && down != nil {
		if _, err := down.conn.Write(pre); err != nil {
			return nil, fmt.Errorf("transport: ring forward: %w", err)
		}
	}
	for off := 0; off < n; {
		if off == len(buf) {
			grown := make([]byte, min(n, 2*len(buf)))
			copy(grown, buf)
			buf = grown
		}
		m, err := up.br.Read(buf[off:])
		if m > 0 && down != nil {
			// pre lives in up's scratch, which Read does not touch.
			down.vecs = [2][]byte{pre, buf[off : off+m]}
			down.vec = down.vecs[:]
			pre = nil
			if _, err := down.vec.WriteTo(down.conn); err != nil {
				w.recycle(buf)
				return nil, fmt.Errorf("transport: ring forward: %w", err)
			}
		}
		off += m
		if err != nil && off < n {
			w.recycle(buf)
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}

// takeBuffer returns a buffer for an n-byte block body: one off the free list
// at full length when one fits without wasting more than it holds, else a
// fresh one of at most bodyChunk bytes for readBody to grow.
func (w *Worker) takeBuffer(n int) []byte {
	if n == 0 {
		return nil
	}
	w.mu.Lock()
	for i, b := range w.free {
		if cap(b) >= n && cap(b)/2 <= n {
			last := len(w.free) - 1
			w.free[i], w.free[last] = w.free[last], nil
			w.free = w.free[:last]
			w.freeTotal -= cap(b)
			w.mu.Unlock()
			return b[:n]
		}
	}
	w.mu.Unlock()
	return make([]byte, min(n, bodyChunk))
}

// recycle returns a buffer nothing refers to any more to the free list.
func (w *Worker) recycle(buf []byte) {
	w.mu.Lock()
	w.recycleLocked(buf)
	w.mu.Unlock()
}

func (w *Worker) recycleLocked(buf []byte) {
	if cap(buf) == 0 || len(w.free) == freeBuffers || w.freeTotal+cap(buf) > freeBytes {
		return
	}
	w.free = append(w.free, buf)
	w.freeTotal += cap(buf)
}

// store records one verified block, taking ownership of enc and keeping only
// the newest stage and at most MaxBlocks entries.
func (w *Worker) store(stage, bi, bj int, enc []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if stage != w.stage {
		w.stage = stage
		for k, old := range w.blocks {
			w.recycleLocked(old)
			delete(w.blocks, k)
		}
	}
	key := blockKey{bi, bj}
	old, replaces := w.blocks[key]
	if !replaces && len(w.blocks) >= w.cfg.MaxBlocks {
		w.recycleLocked(enc)
		return
	}
	w.recycleLocked(old)
	w.blocks[key] = enc
}

// forwardLink returns the connection to the next hop, locked for the caller's
// relay. Looking the entry up and dialing it are one step under the entry's
// mutex, so two rings reaching the same next hop share one connection, one
// after the other.
func (w *Worker) forwardLink(addr []byte) (*fwdLink, error) {
	w.mu.Lock()
	fl, ok := w.fwd[string(addr)]
	if !ok {
		fl = &fwdLink{addr: string(addr)}
		w.fwd[fl.addr] = fl
	}
	w.mu.Unlock()
	fl.mu.Lock()
	if fl.link == nil {
		conn, err := w.dial(fl.addr)
		if err == nil && !w.track(conn) {
			conn.Close()
			err = net.ErrClosed
		}
		if err != nil {
			fl.mu.Unlock()
			return nil, err
		}
		fl.link = newLink(conn)
	}
	return fl, nil
}

// dropForward discards a forward connection a relay broke off on, so the
// next ring re-dials. Caller holds fl.mu.
func (w *Worker) dropForward(fl *fwdLink) {
	if fl.link != nil {
		w.drop(fl.link.conn)
		fl.link = nil
	}
}
