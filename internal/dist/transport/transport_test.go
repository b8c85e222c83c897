package transport

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"dmac/internal/dep"
	"dmac/internal/dist"
	"dmac/internal/matrix"
	"dmac/internal/mio"
	"dmac/internal/obs"
)

// startWorker spins up one worker endpoint on loopback and returns it with
// its dial address, cleaned up with the test.
func startWorker(t *testing.T, cfg WorkerConfig) (*Worker, string) {
	t.Helper()
	w := NewWorker(cfg)
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve()
	t.Cleanup(func() { w.Close() })
	return w, addr.String()
}

// testBlock builds a small dense block with distinct values.
func testBlock(seed int) matrix.Block {
	data := make([]float64, 12)
	for i := range data {
		data[i] = float64(seed*100+i) + 0.25
	}
	return matrix.NewDenseData(3, 4, data)
}

// fastTCP builds a coordinator transport with short timeouts suited to tests,
// cleaned up with the test.
func fastTCP(t *testing.T, addrs ...string) *TCP {
	t.Helper()
	tr := NewTCP(Config{
		Addrs:                addrs,
		DialTimeoutSec:       0.5,
		IOTimeoutSec:         2,
		HeartbeatIntervalSec: 0.05,
		HeartbeatMisses:      3,
	})
	t.Cleanup(func() { tr.Close() })
	return tr
}

func TestScatterRoundTrip(t *testing.T) {
	w0, a0 := startWorker(t, WorkerConfig{})
	w1, a1 := startWorker(t, WorkerConfig{})
	tr := fastTCP(t, a0, a1)

	xfers := []dist.BlockXfer{
		{Bi: 0, Bj: 0, To: 0, Block: testBlock(1)},
		{Bi: 0, Bj: 1, To: 1, Block: testBlock(2)},
		{Bi: 1, Bj: 0, To: 1, Block: testBlock(3)},
	}
	wire, err := tr.Scatter(context.Background(), "partition", 1, xfers)
	if err != nil {
		t.Fatal(err)
	}
	if w0.BlockCount() != 1 || w1.BlockCount() != 2 {
		t.Errorf("stored blocks = %d / %d, want 1 / 2", w0.BlockCount(), w1.BlockCount())
	}
	// Two hellos (2 frames each) plus three PUT round-trips (2 frames each).
	if wire.Frames != 10 {
		t.Errorf("frames = %d, want 10", wire.Frames)
	}
	// Each block's payload (12 float64s) must be on the wire at least once.
	if wire.Bytes < 3*12*8 {
		t.Errorf("wire bytes = %d, want at least %d", wire.Bytes, 3*12*8)
	}
}

func TestScatterNewStageDropsOldBlocks(t *testing.T) {
	w0, a0 := startWorker(t, WorkerConfig{})
	tr := fastTCP(t, a0)
	ctx := context.Background()
	if _, err := tr.Scatter(ctx, "partition", 1, []dist.BlockXfer{{To: 0, Block: testBlock(1)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Scatter(ctx, "partition", 2, []dist.BlockXfer{{Bi: 5, To: 0, Block: testBlock(2)}}); err != nil {
		t.Fatal(err)
	}
	if w0.BlockCount() != 1 {
		t.Errorf("worker holds %d blocks after stage change, want 1 (newest stage only)", w0.BlockCount())
	}
}

func TestRingBroadcast(t *testing.T) {
	workers := make([]*Worker, 3)
	addrs := make([]string, 3)
	for i := range workers {
		workers[i], addrs[i] = startWorker(t, WorkerConfig{})
	}
	tr := fastTCP(t, addrs...)

	blocks := []dist.BlockXfer{
		{Bi: 0, Bj: 0, To: -1, Block: testBlock(7)},
		{Bi: 0, Bj: 1, To: -1, Block: testBlock(8)},
	}
	wire, err := tr.Ring(context.Background(), "broadcast", 1, blocks, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range workers {
		if w.BlockCount() != 2 {
			t.Errorf("worker %d stored %d blocks, want 2", i, w.BlockCount())
		}
	}
	// The ring relays the payload across three links; the measured total must
	// cover roughly three copies of the two-block payload.
	if wire.Bytes < 3*2*12*8 {
		t.Errorf("ring wire bytes = %d, want at least %d (3 links)", wire.Bytes, 3*2*12*8)
	}
	// hello(2) + coordinator RING round-trip (2) + two forward round-trips (2+2).
	if wire.Frames != 8 {
		t.Errorf("ring frames = %d, want 8", wire.Frames)
	}
}

func TestCollect(t *testing.T) {
	w0, a0 := startWorker(t, WorkerConfig{})
	_, a1 := startWorker(t, WorkerConfig{})
	tr := fastTCP(t, a0, a1)
	ctx := context.Background()
	if _, err := tr.Scatter(ctx, "partition", 3, []dist.BlockXfer{{To: 0, Block: testBlock(1)}}); err != nil {
		t.Fatal(err)
	}
	wire, err := tr.Collect(ctx, 3, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if w0.BlockCount() != 1 {
		t.Fatalf("worker 0 lost its block")
	}
	// One hello (worker 1 was not dialed yet) + two collect round-trips.
	if wire.Frames != 6 {
		t.Errorf("collect frames = %d, want 6", wire.Frames)
	}
}

// badCRCServer is a fake peer that answers the first `rejects` PUT frames
// with badCRC before accepting.
func badCRCServer(t *testing.T, rejects int) string {
	t.Helper()
	left := rejects // PUTs arrive on the one operation connection
	return fakePeer(t, func(conn net.Conn, typ byte, _ []byte) bool {
		if typ == fPut && left > 0 {
			left--
			refWriteFrame(conn, fPutBadCRC, nil)
		} else if typ == fPut {
			refWriteFrame(conn, fPutOK, nil)
		}
		return true
	})
}

func TestPutRetransmitsOnBadCRC(t *testing.T) {
	addr := badCRCServer(t, 2)
	tr := fastTCP(t, addr)
	wire, err := tr.Scatter(context.Background(), "partition", 1, []dist.BlockXfer{{To: 0, Block: testBlock(4)}})
	if err != nil {
		t.Fatalf("scatter with 2 CRC rejects failed: %v", err)
	}
	// hello (2 frames) + three PUT round-trips: two rejected, one accepted.
	if wire.Frames != 8 {
		t.Errorf("frames = %d, want 8 (two retransmits)", wire.Frames)
	}
	// The payload crossed the wire three times.
	if wire.Bytes < 3*12*8 {
		t.Errorf("wire bytes = %d, want at least three payload copies", wire.Bytes)
	}
}

func TestPutGivesUpAfterRepeatedBadCRC(t *testing.T) {
	addr := badCRCServer(t, 100)
	tr := fastTCP(t, addr)
	_, err := tr.Scatter(context.Background(), "partition", 1, []dist.BlockXfer{{To: 0, Block: testBlock(4)}})
	var pd *dist.PeerDown
	if !errors.As(err, &pd) {
		t.Fatalf("persistent CRC rejection = %v, want *dist.PeerDown", err)
	}
}

func TestWorkerAnswersBadCRCToCorruptFrame(t *testing.T) {
	_, addr := startWorker(t, WorkerConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := mio.EncodeBlock(testBlock(9))
	crc := mio.ChecksumBytes(enc)
	enc[len(enc)-1] ^= 0x40 // flip a bit after checksumming: damage in transit
	if _, err := refWriteFrame(conn, fPut, putPayload(1, 0, 0, crc, enc)); err != nil {
		t.Fatal(err)
	}
	typ, _, _, err := refReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != fPutBadCRC {
		t.Errorf("corrupt PUT answered with frame type %d, want badCRC", typ)
	}
}

func TestDeadWorkerBecomesPeerDown(t *testing.T) {
	w0, a0 := startWorker(t, WorkerConfig{})
	tr := fastTCP(t, a0)
	ctx := context.Background()
	if _, err := tr.Scatter(ctx, "partition", 1, []dist.BlockXfer{{To: 0, Block: testBlock(1)}}); err != nil {
		t.Fatal(err)
	}
	w0.Close()
	_, err := tr.Scatter(ctx, "partition", 1, []dist.BlockXfer{{To: 0, Block: testBlock(2)}})
	var pd *dist.PeerDown
	if !errors.As(err, &pd) {
		t.Fatalf("scatter to killed worker = %v, want *dist.PeerDown", err)
	}
	if pd.Worker != 0 || pd.Addr != a0 {
		t.Errorf("PeerDown = worker %d addr %q, want worker 0 addr %q", pd.Worker, pd.Addr, a0)
	}
}

// TestRingToDeadFirstHopReturnsPeerDown is the regression test for a
// self-deadlock: Ring used to hold the first hop's peer mutex while blameRing
// pinged the hops through the same mutex, so a ring into a freshly dead first
// hop (warm connection, then SIGKILL) hung forever instead of failing.
func TestRingToDeadFirstHopReturnsPeerDown(t *testing.T) {
	w0, a0 := startWorker(t, WorkerConfig{})
	_, a1 := startWorker(t, WorkerConfig{})
	tr := fastTCP(t, a0, a1)
	ctx := context.Background()
	// Warm the connection to the first hop, then kill it.
	if _, err := tr.Scatter(ctx, "partition", 1, []dist.BlockXfer{{To: 0, Block: testBlock(1)}}); err != nil {
		t.Fatal(err)
	}
	w0.Close()

	errCh := make(chan error, 1)
	go func() {
		_, err := tr.Ring(ctx, "broadcast", 1, []dist.BlockXfer{{To: -1, Block: testBlock(2)}}, []int{0, 1})
		errCh <- err
	}()
	select {
	case err := <-errCh:
		var pd *dist.PeerDown
		if !errors.As(err, &pd) {
			t.Fatalf("ring through dead first hop = %v, want *dist.PeerDown", err)
		}
		if pd.Worker != 0 {
			t.Errorf("PeerDown blames worker %d, want 0", pd.Worker)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ring through dead first hop deadlocked")
	}
}

// TestRingBlamesDeadDownstreamHop kills a downstream hop: the forwarding
// failure surfaces on the first hop's connection, and blameRing's probes must
// attribute the PeerDown to the hop that actually died, not the messenger.
func TestRingBlamesDeadDownstreamHop(t *testing.T) {
	_, a0 := startWorker(t, WorkerConfig{})
	w1, a1 := startWorker(t, WorkerConfig{})
	tr := fastTCP(t, a0, a1)
	ctx := context.Background()
	if _, err := tr.Ring(ctx, "broadcast", 1, []dist.BlockXfer{{To: -1, Block: testBlock(1)}}, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	w1.Close()
	_, err := tr.Ring(ctx, "broadcast", 2, []dist.BlockXfer{{To: -1, Block: testBlock(2)}}, []int{0, 1})
	var pd *dist.PeerDown
	if !errors.As(err, &pd) {
		t.Fatalf("ring through dead downstream hop = %v, want *dist.PeerDown", err)
	}
	if pd.Worker != 1 {
		t.Errorf("PeerDown blames worker %d, want 1 (the dead downstream hop)", pd.Worker)
	}
}

func TestHeartbeatMarksContactedPeerDead(t *testing.T) {
	w0, a0 := startWorker(t, WorkerConfig{})
	tr := fastTCP(t, a0)
	ctx := context.Background()
	if _, err := tr.Scatter(ctx, "partition", 1, []dist.BlockXfer{{To: 0, Block: testBlock(1)}}); err != nil {
		t.Fatal(err)
	}
	w0.Close()
	deadline := time.Now().Add(5 * time.Second)
	for !tr.peers[0].dead.Load() {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat never marked the killed worker dead")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Once dead, operations fail immediately without dial backoff.
	start := time.Now()
	_, err := tr.Scatter(ctx, "partition", 1, []dist.BlockXfer{{To: 0, Block: testBlock(2)}})
	var pd *dist.PeerDown
	if !errors.As(err, &pd) {
		t.Fatalf("scatter to dead peer = %v, want *dist.PeerDown", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("dead-peer fast path took %v, want immediate failure", elapsed)
	}
}

// TestTCPClusterChargesMatchModel drives the cluster's collectives over a
// real loopback TCP data plane and checks the model charges are byte-for-byte
// identical to the in-process transport (the model is transport-independent),
// while the measured wire traffic is nonzero and at least the modeled payload
// (framing and acks only ever add bytes).
func TestTCPClusterChargesMatchModel(t *testing.T) {
	addrs := make([]string, 4)
	for i := range addrs {
		_, addrs[i] = startWorker(t, WorkerConfig{})
	}
	wired := dist.NewCluster(dist.Config{WorkerAddrs: addrs, LocalParallelism: 2})
	wired.SetTransport(fastTCP(t, addrs...))
	local := dist.NewCluster(dist.Config{Workers: 4, LocalParallelism: 2})

	run := func(c *dist.Cluster) dist.Snapshot {
		ctx := context.Background()
		g := matrix.NewDenseGrid(12, 10, 4)
		for i := 0; i < 12; i++ {
			for j := 0; j < 10; j++ {
				g.Set(i, j, float64(i*10+j)+0.5)
			}
		}
		m := dist.NewDistMatrix(g, dep.SchemeNone)
		rowed, err := c.Partition(ctx, m, dep.Row, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Broadcast(ctx, m, 1, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ShuffleTranspose(ctx, rowed, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Sum(ctx, rowed, 2); err != nil {
			t.Fatal(err)
		}
		return c.Net().Snapshot()
	}
	ws, ls := run(wired), run(local)
	if ws.Bytes != ls.Bytes || ws.CommEvents != ls.CommEvents || ws.Broadcasts != ls.Broadcasts || ws.Shuffles != ls.Shuffles {
		t.Errorf("TCP model charges (%d B, %d ev, %d bc, %d sh) differ from inproc (%d B, %d ev, %d bc, %d sh)",
			ws.Bytes, ws.CommEvents, ws.Broadcasts, ws.Shuffles, ls.Bytes, ls.CommEvents, ls.Broadcasts, ls.Shuffles)
	}
	if ls.WireBytes != 0 || ls.WireFrames != 0 {
		t.Errorf("inproc measured wire traffic: %d B / %d frames", ls.WireBytes, ls.WireFrames)
	}
	if ws.WireBytes <= ws.Bytes {
		t.Errorf("TCP measured %d wire bytes, want more than the %d modeled payload bytes", ws.WireBytes, ws.Bytes)
	}
	if ws.WireFrames == 0 {
		t.Error("TCP measured no frames")
	}
	if wired.TransportName() != "tcp" {
		t.Errorf("TransportName = %q, want tcp", wired.TransportName())
	}
}

// TestClusterTimesEachTransportCall: the cluster times every transport call
// and exports it per collective — a net.wire.seconds{op} histogram and a
// wire_s attribute on the "net" trace event — so a trace can tell a slow
// scatter from a slow ring. The in-process transport moves nothing and
// records neither.
func TestClusterTimesEachTransportCall(t *testing.T) {
	addrs := make([]string, 3)
	for i := range addrs {
		_, addrs[i] = startWorker(t, WorkerConfig{})
	}
	run := func(c *dist.Cluster) ([]obs.Span, obs.MetricsSnapshot) {
		tracer, reg := obs.NewTracer(), obs.NewRegistry()
		c.SetObserver(tracer, reg)
		ctx := context.Background()
		m := dist.NewDistMatrix(matrix.NewDenseGrid(9, 9, 3), dep.SchemeNone)
		if _, err := c.Partition(ctx, m, dep.Row, 1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := c.Broadcast(ctx, m, 2, nil); err != nil {
				t.Fatal(err)
			}
		}
		return tracer.Spans(), reg.Snapshot()
	}

	wired := dist.NewCluster(dist.Config{WorkerAddrs: addrs, LocalParallelism: 1})
	wired.SetTransport(fastTCP(t, addrs...))
	spans, snap := run(wired)
	calls := map[string]int64{}
	for _, h := range snap.HistogramVecs["net.wire.seconds"] {
		calls[h.Labels["op"]] = h.Hist.Count
		if h.Hist.Sum <= 0 {
			t.Errorf("net.wire.seconds{op=%s} sums to %g s, want a positive time", h.Labels["op"], h.Hist.Sum)
		}
	}
	if calls["partition"] != 1 || calls["broadcast"] != 2 || len(calls) != 2 {
		t.Errorf("net.wire.seconds observations by op = %v, want partition:1 broadcast:2", calls)
	}
	events := 0
	for _, s := range spans {
		if s.Cat != "net" {
			continue
		}
		events++
		if a, ok := s.Attr("wire_s"); !ok || a.Float <= 0 {
			t.Errorf("net event %q carries wire_s = %v (present %v), want a positive time", s.Name, a.Float, ok)
		}
	}
	if events != 3 {
		t.Errorf("%d net trace events, want 3", events)
	}

	_, snap = run(dist.NewCluster(dist.Config{Workers: 3, LocalParallelism: 1}))
	if hs := snap.HistogramVecs["net.wire.seconds"]; len(hs) != 0 {
		t.Errorf("in-process transport recorded wire time: %v", hs)
	}
}
