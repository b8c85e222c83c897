package transport

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dmac/internal/dist"
	"dmac/internal/obs"
	"dmac/internal/retry"
)

// Config tunes the coordinator side of the TCP transport.
type Config struct {
	// Addrs are the worker dial addresses; index in this slice is the
	// cluster worker index.
	Addrs []string
	// DialTimeoutSec bounds one dial attempt (default 2 s). Dials retry
	// under a jittered backoff before the peer is reported down.
	DialTimeoutSec float64
	// IOTimeoutSec bounds each frame write and reply read (default 10 s); a
	// nearer context deadline tightens it.
	IOTimeoutSec float64
	// HeartbeatIntervalSec is the ping period per peer (default 1 s).
	HeartbeatIntervalSec float64
	// HeartbeatMisses is how many consecutive unanswered pings mark a peer
	// dead (default 3). A peer is only declared dead after it has been
	// successfully contacted once, so a slow-starting worker is waited for,
	// not buried.
	HeartbeatMisses int
}

func (c Config) withDefaults() Config {
	if c.DialTimeoutSec <= 0 {
		c.DialTimeoutSec = 2
	}
	if c.IOTimeoutSec <= 0 {
		c.IOTimeoutSec = 10
	}
	if c.HeartbeatIntervalSec <= 0 {
		c.HeartbeatIntervalSec = 1
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = 3
	}
	return c
}

// crcRetries is how many times a block frame is retransmitted after the
// receiver answers badCRC before the transfer is abandoned.
const crcRetries = 3

// putWindow is how many PUT frames a connection may carry un-acknowledged.
// The worker answers each with a five-byte frame and never stops reading to
// do so — a full window of answers cannot fill a socket buffer — so sender
// and receiver cannot block on each other's writes.
const putWindow = 8

// peer is the coordinator's view of one worker: its operation connection
// (frames serialized under mu), and the liveness verdict maintained by the
// heartbeat loop.
type peer struct {
	index int
	addr  string

	mu   sync.Mutex // serializes frames on link and guards link, out and rest
	link *link      // nil until dialed and after a failure
	out  frameOut   // the PUT or RING frame being sent
	rest []string   // the hops after this one of the RING being sent

	contacted atomic.Bool // ever successfully contacted (gates heartbeat death)
	dead      atomic.Bool
	deadErr   atomic.Value // error
	// downed is closed, once, when the peer is first marked dead.
	downed   chan struct{}
	downOnce sync.Once
}

// down marks the peer dead with its root cause.
func (p *peer) down(err error) {
	p.deadErr.Store(err)
	p.dead.Store(true)
	p.downOnce.Do(func() { close(p.downed) })
}

// downErr returns the stored death cause.
func (p *peer) downErr() error {
	if e, ok := p.deadErr.Load().(error); ok {
		return e
	}
	return fmt.Errorf("transport: peer %d down", p.index)
}

// TCP is the wire implementation of dist.Transport: blocks travel to worker
// processes as CRC32C-checked frames over per-peer TCP connections, dials
// retry under jittered backoff, every frame I/O carries a deadline, and a
// heartbeat loop per peer turns an unresponsive worker into *dist.PeerDown.
type TCP struct {
	cfg   Config
	peers []*peer
	done  chan struct{}
	once  sync.Once

	// metrics holds the attached registry's counters (SetObserver).
	metrics atomic.Pointer[tcpMetrics]
}

// tcpCounter is one of the transport's counters.
type tcpCounter uint8

const (
	dialRetries tcpCounter = iota
	crcRetransmits
	heartbeatMisses
	numTCPCounters
)

var tcpCounterNames = [numTCPCounters]string{"net.dial.retries", "net.crc.retransmits", "net.heartbeat.misses"}

// tcpMetrics holds one registry's transport counters, each resolved on its
// first count and held after it.
type tcpMetrics struct {
	reg      *obs.Registry
	counters [numTCPCounters]obs.Lazy[obs.Counter]
}

// NewTCP creates the transport and starts one heartbeat loop per worker.
func NewTCP(cfg Config) *TCP {
	cfg = cfg.withDefaults()
	t := &TCP{cfg: cfg, done: make(chan struct{})}
	for i, a := range cfg.Addrs {
		t.peers = append(t.peers, &peer{index: i, addr: a, downed: make(chan struct{})})
	}
	for _, p := range t.peers {
		go t.heartbeat(p)
	}
	return t
}

func (t *TCP) Name() string { return "tcp" }

// SetObserver attaches the cluster's metric registry (the cluster forwards
// its observer here when the transport is installed).
func (t *TCP) SetObserver(_ *obs.Tracer, reg *obs.Registry) {
	t.metrics.Store(&tcpMetrics{reg: reg})
}

// count bumps a transport counter if a registry is attached.
func (t *TCP) count(c tcpCounter, n int64) {
	if m := t.metrics.Load(); m != nil && n > 0 {
		m.counters[c].Get(func() *obs.Counter { return m.reg.Counter(tcpCounterNames[c]) }).Add(n)
	}
}

// Close stops the heartbeats and drops all connections.
func (t *TCP) Close() error {
	t.once.Do(func() { close(t.done) })
	for _, p := range t.peers {
		p.mu.Lock()
		p.dropLocked()
		p.mu.Unlock()
	}
	return nil
}

// ioTimeout is the per-frame I/O budget.
func (t *TCP) ioTimeout() time.Duration { return seconds(t.cfg.IOTimeoutSec) }

// deadline is the I/O deadline of budget from now, tightened by the context's
// own deadline when that is nearer.
func deadline(ctx context.Context, budget time.Duration) time.Time {
	d := time.Now().Add(budget)
	if cd, ok := ctx.Deadline(); ok && cd.Before(d) {
		d = cd
	}
	return d
}

// ringBudget is how long the sender of a RING waits for its acknowledgement
// when hops hops are still to be reached: the acknowledgement covers every
// one of them, so each gets an I/O budget, plus one for the sender's own
// link.
func ringBudget(hops int, ioTimeout time.Duration) time.Duration {
	return time.Duration(hops+1) * ioTimeout
}

// dialPolicy is the jittered dial backoff; the seed is the peer index so
// peers retrying against a busy endpoint spread out deterministically.
func dialPolicy(worker int) retry.Policy {
	return retry.Policy{BaseSec: 0.05, CapSec: 0.5, Jitter: 0.2, MaxAttempts: 4, Seed: int64(worker)}
}

// linkLocked returns the peer's operation connection, dialing (with retry and
// a hello exchange announcing the worker's index) on first use. Wire bytes of
// the hello are added to w. Caller holds p.mu.
func (t *TCP) linkLocked(ctx context.Context, p *peer, w *dist.Wire) (*link, error) {
	if p.dead.Load() {
		return nil, p.downErr()
	}
	if p.link != nil {
		return p.link, nil
	}
	attempts := 0
	err := retry.Do(ctx, dialPolicy(p.index), func(ctx context.Context) error {
		attempts++
		conn, err := net.DialTimeout("tcp", p.addr, seconds(t.cfg.DialTimeoutSec))
		if err != nil {
			return err
		}
		l := newLink(conn)
		conn.SetDeadline(deadline(ctx, t.ioTimeout()))
		sent, err := l.writeFrame(fHello, u32Payload(p.index))
		if err != nil {
			conn.Close()
			return err
		}
		typ, _, got, err := l.readFrame()
		if err != nil || typ != fHelloOK {
			conn.Close()
			if err == nil {
				err = fmt.Errorf("transport: hello answered with frame type %d", typ)
			}
			return err
		}
		w.Bytes += sent + got
		w.Frames += 2
		p.link = l
		p.contacted.Store(true)
		return nil
	})
	t.count(dialRetries, int64(attempts-1))
	if err != nil {
		return nil, err
	}
	return p.link, nil
}

// dropLocked discards the peer's broken connection. Caller holds p.mu.
func (p *peer) dropLocked() {
	if p.link != nil {
		p.link.conn.Close()
		p.link = nil
	}
}

// peerDown wraps err as the typed unreachable-peer error.
func peerDown(p *peer, err error) error {
	return &dist.PeerDown{Worker: p.index, Addr: p.addr, Err: err}
}

// eachPeer runs f(0..n-1) side by side, one goroutine per destination (the
// caller's own for the last), and returns the summed traffic with the error
// of the lowest index that failed, so a failure reads the same whatever order
// the destinations finished in.
func eachPeer(n int, f func(i int) (dist.Wire, error)) (dist.Wire, error) {
	wires := make([]dist.Wire, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n-1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wires[i], errs[i] = f(i)
		}()
	}
	if n > 0 {
		wires[n-1], errs[n-1] = f(n - 1)
	}
	wg.Wait()
	var w dist.Wire
	var first error
	for i := range wires {
		w.Bytes += wires[i].Bytes
		w.Frames += wires[i].Frames
		if first == nil {
			first = errs[i]
		}
	}
	return w, first
}

// Scatter delivers each transfer's block to its destination worker as a PUT
// frame, all destinations at once, retransmitting on a badCRC answer.
func (t *TCP) Scatter(ctx context.Context, op string, stage int, xfers []dist.BlockXfer) (dist.Wire, error) {
	byDest := make([][]dist.BlockXfer, len(t.peers))
	for _, x := range xfers {
		if x.To < 0 || x.To >= len(t.peers) {
			return dist.Wire{}, fmt.Errorf("transport: scatter to unknown worker %d", x.To)
		}
		byDest[x.To] = append(byDest[x.To], x)
	}
	dests := make([]int, 0, len(byDest))
	for d, xs := range byDest {
		if len(xs) > 0 {
			dests = append(dests, d)
		}
	}
	return eachPeer(len(dests), func(i int) (dist.Wire, error) {
		return t.putAll(ctx, t.peers[dests[i]], stage, byDest[dests[i]])
	})
}

// sentPut is one PUT on the wire awaiting its answer: the transfer's index
// and how many times it has been sent before.
type sentPut struct{ idx, resends int }

// putAll sends one destination's blocks over its connection, keeping up to
// putWindow PUTs un-acknowledged. Answers arrive in the order the frames were
// sent; a badCRC answer puts that block, alone, back on the wire.
func (t *TCP) putAll(ctx context.Context, p *peer, stage int, xfers []dist.BlockXfer) (w dist.Wire, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	l, err := t.linkLocked(ctx, p, &w)
	if err != nil {
		return w, peerDown(p, err)
	}
	// fail abandons the connection with the transfer: answers may still be
	// owed on it, and a later operation must not read them as its own.
	fail := func(err error) (dist.Wire, error) {
		p.dropLocked()
		return w, peerDown(p, err)
	}
	var window [putWindow]sentPut // a ring: head is the oldest of n un-acknowledged PUTs
	head, n := 0, 0
	send := func(s sentPut) error {
		x := xfers[s.idx]
		p.out.begin(fPut, putHdrCap)
		p.out.u32(stage)
		p.out.block(x.Bi, x.Bj, x.Block, false)
		l.conn.SetDeadline(deadline(ctx, t.ioTimeout()))
		sent, err := p.out.writeTo(l.conn)
		if err != nil {
			return err
		}
		w.Bytes += sent
		w.Frames++
		window[(head+n)%putWindow] = s
		n++
		return nil
	}
	for next := 0; next < len(xfers) || n > 0; {
		for ; next < len(xfers) && n < putWindow; next++ {
			if err := ctx.Err(); err != nil {
				if n > 0 {
					p.dropLocked()
				}
				return w, err
			}
			if err := send(sentPut{idx: next}); err != nil {
				return fail(err)
			}
		}
		l.conn.SetDeadline(deadline(ctx, t.ioTimeout()))
		typ, _, got, err := l.readFrame()
		if err != nil {
			return fail(err)
		}
		w.Bytes += got
		w.Frames++
		s := window[head]
		head, n = (head+1)%putWindow, n-1
		switch {
		case typ == fPutOK:
		case typ != fPutBadCRC:
			return fail(fmt.Errorf("transport: put answered with frame type %d", typ))
		case s.resends == crcRetries:
			x := xfers[s.idx]
			return fail(fmt.Errorf("transport: block (%d,%d) rejected %d times by CRC", x.Bi, x.Bj, crcRetries+1))
		default:
			// Damaged in transit; the same block goes again and the
			// retransmitted bytes are honestly part of the wire total.
			t.count(crcRetransmits, 1)
			s.resends++
			if err := send(s); err != nil {
				return fail(err)
			}
		}
	}
	return w, nil
}

// Ring replicates the blocks onto every hop by ring forwarding: one RING
// frame to the first hop carries the block set and the remaining hop
// addresses; each hop stores, forwards, and reports the bytes relayed
// downstream in its ack, so the returned Wire covers the whole ring.
func (t *TCP) Ring(ctx context.Context, op string, stage int, blocks []dist.BlockXfer, hops []int) (dist.Wire, error) {
	var w dist.Wire
	if len(hops) == 0 || len(blocks) == 0 {
		return w, nil
	}
	for _, h := range hops {
		if h < 0 || h >= len(t.peers) {
			return w, fmt.Errorf("transport: ring through unknown worker %d", h)
		}
	}
	p := t.peers[hops[0]]

	// The locked round-trip to the first hop. On an I/O failure the cause is
	// returned with ringBroke=true and the lock is released before blameRing
	// probes the hops — blameRing pings through the same peer mutexes, so
	// blaming under the lock would self-deadlock.
	ringBroke := false
	err := func() error {
		p.mu.Lock()
		defer p.mu.Unlock()
		l, err := t.linkLocked(ctx, p, &w)
		if err != nil {
			return peerDown(p, err)
		}
		p.rest = p.rest[:0]
		for _, h := range hops[1:] {
			p.rest = append(p.rest, t.peers[h].addr)
		}
		p.out.begin(fRing, ringHdrCap(p.rest, len(blocks)))
		p.out.u32(stage)
		p.out.u16(len(p.rest))
		for _, h := range p.rest {
			p.out.str(h)
		}
		p.out.u32(len(blocks))
		for _, x := range blocks {
			p.out.block(x.Bi, x.Bj, x.Block, true)
		}
		// The whole ring must finish before the first hop acks.
		l.conn.SetDeadline(deadline(ctx, ringBudget(len(hops), t.ioTimeout())))
		sent, err := p.out.writeTo(l.conn)
		if err != nil {
			p.dropLocked()
			ringBroke = true
			return err
		}
		typ, payload, got, err := l.readFrame()
		if err != nil {
			p.dropLocked()
			ringBroke = true
			return err
		}
		if typ != fRingOK {
			p.dropLocked()
			return peerDown(p, fmt.Errorf("transport: ring answered with frame type %d", typ))
		}
		downBytes, downFrames, err := parseRingOK(payload)
		if err != nil {
			p.dropLocked()
			return peerDown(p, err)
		}
		w.Bytes += sent + got + downBytes
		w.Frames += 2 + downFrames
		return nil
	}()
	if ringBroke {
		return w, t.blameRing(ctx, hops, err)
	}
	return w, err
}

// blameRing identifies the broken hop of a failed ring: a forwarding failure
// anywhere downstream surfaces as an error on the first hop's connection, so
// each hop is probed with a ping and the first unresponsive one is the peer
// reported down. If every hop answers, the first hop carries the blame.
func (t *TCP) blameRing(ctx context.Context, hops []int, cause error) error {
	for _, h := range hops {
		p := t.peers[h]
		if p.dead.Load() {
			return peerDown(p, p.downErr())
		}
		if err := t.ping(ctx, p); err != nil {
			p.mu.Lock()
			p.dropLocked()
			p.mu.Unlock()
			return peerDown(p, fmt.Errorf("ring broke at hop %d: %w (ring error: %v)", h, err, cause))
		}
	}
	return peerDown(t.peers[hops[0]], cause)
}

// roundTrip sends one block-less request on the peer's operation connection
// and returns the answer's payload with the traffic of the exchange (and of
// the hello, if the connection was dialed for it). Any failure, a wrong
// answer type included, drops the connection.
func (t *TCP) roundTrip(ctx context.Context, p *peer, req byte, payload []byte, want byte) ([]byte, dist.Wire, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var w dist.Wire
	l, err := t.linkLocked(ctx, p, &w)
	if err != nil {
		return nil, w, err
	}
	l.conn.SetDeadline(deadline(ctx, t.ioTimeout()))
	sent, err := l.writeFrame(req, payload)
	if err != nil {
		p.dropLocked()
		return nil, w, err
	}
	typ, reply, got, err := l.readFrame()
	if err != nil {
		p.dropLocked()
		return nil, w, err
	}
	if typ != want {
		p.dropLocked()
		return nil, w, fmt.Errorf("transport: frame type %d answered with frame type %d (%d bytes)", req, typ, len(reply))
	}
	w.Bytes += sent + got
	w.Frames += 2
	return reply, w, nil
}

// ping does one PING round-trip on the peer's operation connection.
func (t *TCP) ping(ctx context.Context, p *peer) error {
	_, _, err := t.roundTrip(ctx, p, fPing, nil, fPong)
	return err
}

// Collect fetches each worker's 8-byte stage aggregate, all workers at once.
func (t *TCP) Collect(ctx context.Context, stage int, workers []int) (dist.Wire, error) {
	for _, wk := range workers {
		if wk < 0 || wk >= len(t.peers) {
			return dist.Wire{}, fmt.Errorf("transport: collect from unknown worker %d", wk)
		}
	}
	return eachPeer(len(workers), func(i int) (dist.Wire, error) {
		p := t.peers[workers[i]]
		agg, w, err := t.roundTrip(ctx, p, fCollect, u32Payload(stage), fCollectOK)
		if err == nil && len(agg) != 8 {
			err = fmt.Errorf("transport: %d-byte collect answer", len(agg))
		}
		if err != nil {
			return w, peerDown(p, err)
		}
		return w, nil
	})
}

// heartbeat is one peer's liveness loop: a PING on a dedicated connection
// every interval. Consecutive misses beyond the configured allowance mark
// the peer dead — but only after it has been contacted successfully at least
// once, so workers still starting up are not buried. Heartbeat traffic rides
// its own connection and is deliberately not part of any collective's Wire
// measurement.
func (t *TCP) heartbeat(p *peer) {
	interval := seconds(t.cfg.HeartbeatIntervalSec)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var l *link
	drop := func() {
		if l != nil {
			l.conn.Close()
			l = nil
		}
	}
	defer drop()
	misses := 0
	for {
		select {
		case <-t.done:
			return
		case <-ticker.C:
		}
		if p.dead.Load() {
			return
		}
		ok := func() bool {
			if l == nil {
				c, err := net.DialTimeout("tcp", p.addr, seconds(t.cfg.DialTimeoutSec))
				if err != nil {
					return false
				}
				l = newLink(c)
			}
			l.conn.SetDeadline(time.Now().Add(interval))
			if _, err := l.writeFrame(fPing, nil); err != nil {
				drop()
				return false
			}
			typ, _, _, err := l.readFrame()
			if err != nil || typ != fPong {
				drop()
				return false
			}
			return true
		}()
		if ok {
			misses = 0
			p.contacted.Store(true)
			continue
		}
		misses++
		t.count(heartbeatMisses, 1)
		if p.contacted.Load() && misses >= t.cfg.HeartbeatMisses {
			p.down(fmt.Errorf("transport: %d consecutive heartbeats unanswered by %s", misses, p.addr))
			return
		}
	}
}
