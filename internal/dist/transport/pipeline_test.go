package transport

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmac/internal/dist"
	"dmac/internal/matrix"
	"dmac/internal/mio"
	"dmac/internal/workload"
)

// Tests of the pipeline's own mechanisms — the PUT window, cut-through
// forwarding, the forward-connection lock, ring deadlines at the hops —
// driven by scripted peers that speak the reference codec. Every wait is on a
// channel or a socket read under a deadline; none is a sleep.

// fakePeer starts a scripted peer. It answers hellos and pings on every
// connection (the coordinator's heartbeat rides its own) and hands each PUT
// or RING frame to onFrame, from that connection's goroutine; onFrame
// returning false ends the connection.
func fakePeer(t *testing.T, onFrame func(conn net.Conn, typ byte, payload []byte) bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			go func() {
				defer conn.Close()
				for {
					typ, payload, _, err := refReadFrame(conn)
					if err != nil {
						return
					}
					switch typ {
					case fHello:
						refWriteFrame(conn, fHelloOK, nil)
					case fPing:
						refWriteFrame(conn, fPong, nil)
					default:
						if !onFrame(conn, typ, payload) {
							return
						}
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// refBlock is b as the reference codec carries it.
func refBlock(bi, bj int, b matrix.Block) ringBlock {
	enc := mio.EncodeBlock(b)
	return ringBlock{bi: bi, bj: bj, crc: mio.ChecksumBytes(enc), enc: enc}
}

// refFrame is a whole frame of the reference codec.
func refFrame(typ byte, payload []byte) []byte {
	var buf bytes.Buffer
	refWriteFrame(&buf, typ, payload)
	return buf.Bytes()
}

// The pipeline changed how frames are produced, not what they are: a PUT and
// a RING built from views of the blocks' memory are byte for byte the frames
// the reference encoder builds from encoded copies.
func TestFramesMatchReferenceCodec(t *testing.T) {
	sparse := workload.SparseUniform(3, 40, 30, 40, 0.2).Block(0, 0)
	blocks := []matrix.Block{testBlock(1), sparse, testBlock(2)}
	var f frameOut
	for i, b := range blocks {
		f.begin(fPut, putHdrCap)
		f.u32(7)
		f.block(i, i+1, b, false)
		var got bytes.Buffer
		n, err := f.writeTo(&got)
		if err != nil {
			t.Fatal(err)
		}
		rb := refBlock(i, i+1, b)
		want := refFrame(fPut, putPayload(7, rb.bi, rb.bj, rb.crc, rb.enc))
		if !bytes.Equal(got.Bytes(), want) || n != int64(len(want)) {
			t.Errorf("block %d: PUT frame (%d bytes, reported %d) differs from the reference encoder's (%d bytes)", i, got.Len(), n, len(want))
		}
	}

	hops := []string{"127.0.0.1:4001", "10.1.2.3:65535"}
	var rbs []ringBlock
	f.begin(fRing, ringHdrCap(hops, len(blocks)))
	f.u32(9)
	f.u16(len(hops))
	for _, h := range hops {
		f.str(h)
	}
	f.u32(len(blocks))
	for i, b := range blocks {
		f.block(i, 0, b, true)
		rbs = append(rbs, refBlock(i, 0, b))
	}
	var got bytes.Buffer
	if _, err := f.writeTo(&got); err != nil {
		t.Fatal(err)
	}
	if want := refFrame(fRing, ringPayload(9, hops, rbs)); !bytes.Equal(got.Bytes(), want) {
		t.Errorf("RING frame (%d bytes) differs from the reference encoder's (%d bytes)", got.Len(), len(want))
	}
}

// manyBlocks lists n small distinct blocks for worker `to`.
func manyBlocks(n, to int) []dist.BlockXfer {
	xfers := make([]dist.BlockXfer, n)
	for i := range xfers {
		xfers[i] = dist.BlockXfer{Bi: i, To: to, Block: testBlock(i)}
	}
	return xfers
}

// A peer that answers nothing until a full window of PUTs has reached it
// proves the window: a stop-and-wait sender would still be waiting for the
// first answer. One PUT inside the window is then refused; exactly that block
// is sent again, the wire total counts the repeat, and every later answer is
// still matched to its own block.
func TestPutWindowRetransmitsOnlyTheRejectedBlock(t *testing.T) {
	const blocks, rejected = 12, 5
	var mu sync.Mutex
	var order []int // Bi of each PUT as it arrived
	held := 0       // PUTs read and not yet answered
	addr := fakePeer(t, func(conn net.Conn, typ byte, payload []byte) bool {
		if typ != fPut {
			t.Errorf("fake peer got frame type %d, want PUT", typ)
			return false
		}
		_, bi, _, crc, enc, err := parsePut(payload)
		if err != nil || mio.ChecksumBytes(enc) != crc {
			t.Errorf("PUT %d arrived damaged (err %v)", bi, err)
			return false
		}
		mu.Lock()
		order = append(order, bi)
		arrived := len(order)
		mu.Unlock()
		held++
		if arrived < putWindow {
			return true // keep the whole first window unanswered
		}
		for ; held > 0; held-- {
			answer := fPutOK
			if arrived-held == rejected {
				answer = fPutBadCRC
			}
			refWriteFrame(conn, answer, nil)
		}
		return true
	})
	tr := fastTCP(t, addr)
	wire, err := tr.Scatter(context.Background(), "partition", 1, manyBlocks(blocks, 0))
	if err != nil {
		t.Fatalf("scatter through a window with one CRC reject: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != blocks+1 {
		t.Fatalf("peer received %d PUTs (%v), want %d: every block once and block %d twice", len(order), order, blocks+1, rejected)
	}
	seen := make(map[int]int)
	for i, bi := range order {
		seen[bi]++
		if i < blocks && bi != i {
			t.Errorf("PUT %d carried block %d; first sends must go in order", i, bi)
		}
	}
	for bi := 0; bi < blocks; bi++ {
		want := 1
		if bi == rejected {
			want = 2
		}
		if seen[bi] != want {
			t.Errorf("block %d sent %d times, want %d (arrival order %v)", bi, seen[bi], want, order)
		}
	}
	// hello round trip, then 13 PUTs of a 3x4 dense block and their answers.
	put := int64(frameHdrLen + smallPayload + 1 + 8*12)
	wantBytes := int64(frameHdrLen+4) + frameHdrLen + (blocks+1)*(put+frameHdrLen)
	if wire.Frames != 2+2*(blocks+1) || wire.Bytes != wantBytes {
		t.Errorf("wire = %d bytes / %d frames, want %d / %d (the retransmit counted)", wire.Bytes, wire.Frames, wantBytes, 2+2*(blocks+1))
	}
}

// A peer that stops answering part-way through a window must cost one I/O
// deadline, not a hang: the sender reports PeerDown.
func TestWithheldAckInsideWindowIsPeerDown(t *testing.T) {
	answered := 0
	addr := fakePeer(t, func(conn net.Conn, typ byte, payload []byte) bool {
		if answered < 2 {
			answered++
			refWriteFrame(conn, fPutOK, nil)
		}
		return true // keep reading, say nothing
	})
	tr := NewTCP(Config{Addrs: []string{addr}, DialTimeoutSec: 0.5, IOTimeoutSec: 0.3, HeartbeatIntervalSec: 0.05})
	t.Cleanup(func() { tr.Close() })
	done := make(chan error, 1)
	go func() {
		_, err := tr.Scatter(context.Background(), "partition", 1, manyBlocks(6, 0))
		done <- err
	}()
	select {
	case err := <-done:
		var pd *dist.PeerDown
		if !errors.As(err, &pd) {
			t.Fatalf("scatter with a withheld ack = %v, want *dist.PeerDown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("scatter with a withheld ack hung past the I/O deadline")
	}
}

// Destinations are driven side by side: a dead one neither holds back the
// live one's blocks nor hides behind it — the error is the lowest-index dead
// peer's.
func TestScatterToDeadAndLivePeers(t *testing.T) {
	live, liveAddr := startWorker(t, WorkerConfig{})
	dead1, deadAddr1 := startWorker(t, WorkerConfig{})
	dead2, deadAddr2 := startWorker(t, WorkerConfig{})
	dead1.Close()
	dead2.Close()
	tr := fastTCP(t, deadAddr1, liveAddr, deadAddr2)
	var xfers []dist.BlockXfer
	for to := 0; to < 3; to++ {
		xfers = append(xfers, manyBlocks(4, to)...)
	}
	_, err := tr.Scatter(context.Background(), "partition", 1, xfers)
	var pd *dist.PeerDown
	if !errors.As(err, &pd) {
		t.Fatalf("scatter to dead peers = %v, want *dist.PeerDown", err)
	}
	if pd.Worker != 0 {
		t.Errorf("PeerDown blames worker %d, want 0 (the lowest-index dead peer)", pd.Worker)
	}
	if n := live.BlockCount(); n != 4 {
		t.Errorf("live peer holds %d blocks, want all 4 of its own", n)
	}
}

// rawRing is a RING frame as the coordinator would send it to a hop whose
// remaining hops are rest.
func rawRing(stage int, rest []string, blocks []ringBlock) []byte {
	return refFrame(fRing, ringPayload(stage, rest, blocks))
}

// Cut-through: with half a RING frame sent and the sender paused, the next
// hop already holds its header and the first half of the first block.
func TestRingHopForwardsWhileReceiving(t *testing.T) {
	big := workload.DenseRandom(5, 64, 64, 64).Block(0, 0) // one 32 KB block
	blocks := []ringBlock{refBlock(0, 0, big), refBlock(1, 0, testBlock(3))}
	downFrame := rawRing(4, nil, blocks)

	type result struct {
		frame []byte
		err   error
	}
	firstHalf := make(chan result, 1)
	rest := make(chan result, 1)
	// The bytes of the downstream frame up to the middle of the first block.
	cut := frameHdrLen + 4 + 2 + 4 + smallPayload + len(blocks[0].enc)/2
	downLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer downLn.Close()
	go func() {
		conn, err := downLn.Accept()
		if err != nil {
			firstHalf <- result{err: err}
			return
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		head := make([]byte, cut)
		_, err = io.ReadFull(conn, head)
		firstHalf <- result{head, err}
		tail := make([]byte, len(downFrame)-cut)
		_, err = io.ReadFull(conn, tail)
		if err == nil {
			_, err = refWriteFrame(conn, fRingOK, ringOKPayload(0, 0))
		}
		rest <- result{tail, err}
	}()

	hop, hopAddr := startWorker(t, WorkerConfig{})
	up, err := net.Dial("tcp", hopAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	upFrame := rawRing(4, []string{downLn.Addr().String()}, blocks)
	upCut := len(upFrame) - (len(downFrame) - cut)
	if _, err := up.Write(upFrame[:upCut]); err != nil {
		t.Fatal(err)
	}
	got := <-firstHalf // the sender is paused here, half a block still unsent
	if got.err != nil {
		t.Fatalf("next hop did not receive the first half while the frame was still arriving: %v", got.err)
	}
	if !bytes.Equal(got.frame, downFrame[:cut]) {
		t.Error("forwarded header and first half-block differ from the frame the reference encoder would send")
	}
	if n := hop.BlockCount(); n != 0 {
		t.Errorf("hop stored %d blocks before any block's CRC could be checked", n)
	}
	if _, err := up.Write(upFrame[upCut:]); err != nil {
		t.Fatal(err)
	}
	tail := <-rest
	if tail.err != nil {
		t.Fatal(tail.err)
	}
	if !bytes.Equal(tail.frame, downFrame[cut:]) {
		t.Error("rest of the forwarded frame differs from the reference encoder's")
	}
	up.SetDeadline(time.Now().Add(10 * time.Second))
	typ, payload, _, err := refReadFrame(up)
	if err != nil || typ != fRingOK {
		t.Fatalf("hop answered type %d, err %v; want RING_OK", typ, err)
	}
	relayedBytes, relayedFrames, err := parseRingOK(payload)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(downFrame) + frameHdrLen + 16); relayedBytes != want || relayedFrames != 2 {
		t.Errorf("hop reported %d bytes / %d frames relayed, want %d / 2", relayedBytes, relayedFrames, want)
	}
	if n := hop.BlockCount(); n != 2 {
		t.Errorf("hop stored %d blocks, want 2", n)
	}
}

// flipProxy relays connections to target, flipping one bit of the byte at
// offset flipAt of each client-to-target stream that opens with a RING frame:
// damage in flight on one ring link, with heartbeats and pings left alone.
func flipProxy(t *testing.T, target string, flipAt int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			server, err := net.Dial("tcp", target)
			if err != nil {
				client.Close()
				continue
			}
			go func() {
				defer client.Close()
				defer server.Close()
				io.Copy(client, server)
			}()
			go func() {
				defer client.Close()
				defer server.Close()
				buf := make([]byte, 4096)
				ring := false
				for off := 0; ; {
					n, err := client.Read(buf)
					if off == 0 && n >= frameHdrLen {
						ring = buf[4] == fRing
					}
					if at := flipAt - off; ring && at >= 0 && at < n {
						buf[at] ^= 0x10
					}
					off += n
					if _, werr := server.Write(buf[:n]); werr != nil || err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// A block damaged on the link into a mid-ring hop is stored at no hop from
// there on — the hop that detects it cuts its forward connection, and the hop
// below, which was sent the same bytes, fails the same check — and the
// coordinator gets PeerDown.
func TestRingBlockDamagedMidRingIsStoredNowhereDownstream(t *testing.T) {
	w0, a0 := startWorker(t, WorkerConfig{})
	w1, a1 := startWorker(t, WorkerConfig{})
	w2, a2 := startWorker(t, WorkerConfig{})
	blocks := []dist.BlockXfer{
		{Bi: 0, To: -1, Block: testBlock(1)},
		{Bi: 1, To: -1, Block: testBlock(2)},
	}
	// The last byte of the frame w0 forwards to w1: inside the second block.
	forwarded := rawRing(1, []string{a2}, []ringBlock{refBlock(0, 0, blocks[0].Block), refBlock(1, 0, blocks[1].Block)})
	p1 := flipProxy(t, a1, len(forwarded)-1)
	tr := fastTCP(t, a0, p1, a2)

	_, err := tr.Ring(context.Background(), "broadcast", 1, blocks, []int{0, 1, 2})
	var pd *dist.PeerDown
	if !errors.As(err, &pd) {
		t.Fatalf("ring with a block damaged in flight = %v, want *dist.PeerDown", err)
	}
	damaged := blockKey{1, 0}
	for i, w := range []*Worker{w0, w1, w2} {
		w.mu.Lock()
		_, has := w.blocks[damaged]
		n := len(w.blocks)
		w.mu.Unlock()
		switch {
		case i == 0 && n != 2:
			t.Errorf("worker 0, upstream of the damage, holds %d blocks, want both", n)
		case i > 0 && has:
			t.Errorf("worker %d stored the damaged block", i)
		case i > 0 && n > 1:
			t.Errorf("worker %d holds %d blocks, want at most the intact one", i, n)
		}
	}
}

// A hop waits for a downstream acknowledgement that covers every hop still
// to go, so it budgets one I/O timeout for each of them (plus its own link),
// not one in all: a last hop slower than a single timeout must not break a
// ring that is inside its total budget.
func TestRingHopBudgetsDeadlinePerRemainingHop(t *testing.T) {
	const hopTimeout = 0.5
	got := make(chan struct{})
	release := make(chan struct{})
	last := fakePeer(t, func(conn net.Conn, typ byte, payload []byte) bool {
		// Two real hops relayed this frame: it must read as the reference
		// codec's, the hop list used up and the block intact.
		_, hops, blocks, err := parseRing(payload)
		if typ != fRing || err != nil || len(hops) != 0 || len(blocks) != 1 || mio.ChecksumBytes(blocks[0].enc) != blocks[0].crc {
			t.Errorf("last hop got frame type %d (parse error %v, %d hops, %d blocks), want a RING of one intact block and no hops", typ, err, len(hops), len(blocks))
			return false
		}
		close(got)
		<-release
		refWriteFrame(conn, fRingOK, ringOKPayload(0, 0))
		return true
	})
	w0, a0 := startWorker(t, WorkerConfig{IOTimeoutSec: hopTimeout})
	w1, a1 := startWorker(t, WorkerConfig{IOTimeoutSec: hopTimeout})
	tr := fastTCP(t, a0, a1, last)

	done := make(chan error, 1)
	go func() {
		_, err := tr.Ring(context.Background(), "broadcast", 1, []dist.BlockXfer{{To: -1, Block: testBlock(1)}}, []int{0, 1, 2})
		done <- err
	}()
	<-got
	// The delay is the stimulus, not a synchronisation: the last hop answers
	// only once a single hop timeout has certainly passed, well inside the
	// two that worker 1 now allows it.
	<-time.After(seconds(hopTimeout + 0.1))
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("ring with a last hop slower than one I/O timeout: %v", err)
	}
	if w0.BlockCount() != 1 || w1.BlockCount() != 1 {
		t.Errorf("hops hold %d / %d blocks, want 1 / 1", w0.BlockCount(), w1.BlockCount())
	}
}

// Two coordinators ringing through the same hop share its one forward
// connection, a whole relay at a time: the connection is dialed once, and no
// frame of one ring lands inside the other's.
func TestConcurrentRingsShareOneForwardConnection(t *testing.T) {
	w0 := NewWorker(WorkerConfig{})
	var dials atomic.Int32
	dial := w0.dial
	w0.dial = func(addr string) (net.Conn, error) {
		dials.Add(1)
		return dial(addr)
	}
	addr0, err := w0.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w0.Serve()
	t.Cleanup(func() { w0.Close() })
	w1, a1 := startWorker(t, WorkerConfig{})

	const coordinators, rings = 3, 15
	var wg sync.WaitGroup
	for c := 0; c < coordinators; c++ {
		tr := fastTCP(t, addr0.String(), a1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rings; i++ {
				blocks := []dist.BlockXfer{{Bi: c, Bj: i, To: -1, Block: testBlock(c*100 + i)}, {Bi: c, Bj: i + 1, To: -1, Block: testBlock(i)}}
				if _, err := tr.Ring(context.Background(), "broadcast", 1, blocks, []int{0, 1}); err != nil {
					t.Errorf("coordinator %d ring %d: %v", c, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := dials.Load(); n != 1 {
		t.Errorf("hop dialed its next hop %d times, want once", n)
	}
	if w0.BlockCount() != w1.BlockCount() || w1.BlockCount() == 0 {
		t.Errorf("hops hold %d / %d blocks, want the same non-zero count", w0.BlockCount(), w1.BlockCount())
	}
}

// Steady state allocates no block buffers: a stage's buffers come back to the
// free list when the next stage arrives, and the list stays inside its bounds
// however many stages go by.
func TestWorkerReusesBlockBuffers(t *testing.T) {
	w0, a0 := startWorker(t, WorkerConfig{})
	tr := fastTCP(t, a0)
	ctx := context.Background()
	xfers := manyBlocks(freeBuffers+8, 0)
	held := make(map[*byte]bool)
	for stage := 1; stage <= 6; stage++ {
		if _, err := tr.Scatter(ctx, "partition", stage, xfers); err != nil {
			t.Fatal(err)
		}
		w0.mu.Lock()
		fresh := 0
		for _, b := range w0.blocks {
			if !held[&b[0]] {
				fresh++
				held[&b[0]] = true
			}
		}
		if len(w0.free) > freeBuffers || w0.freeTotal > freeBytes {
			t.Errorf("stage %d: free list holds %d buffers / %d bytes, over its bounds", stage, len(w0.free), w0.freeTotal)
		}
		w0.mu.Unlock()
		// Stage 1 fills the store and stage 2 the free list; after that the
		// only fresh buffers are the ones the bounded list could not keep.
		if stage > 2 && fresh > len(xfers)-freeBuffers {
			t.Errorf("stage %d: %d of %d blocks landed in fresh buffers, want at most %d", stage, fresh, len(xfers), len(xfers)-freeBuffers)
		}
	}
}
