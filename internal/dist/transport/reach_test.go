package transport

import (
	"context"
	"testing"

	"dmac/internal/dep"
	"dmac/internal/dist"
	"dmac/internal/matrix"
)

// TestTCPNarrowedBroadcastReachesOnlyReceivers rings a broadcast to two of
// four TCP workers: only those two store its blocks, the model charges 2|A|,
// and the measured wire traffic is exactly that payload plus the ring's
// framing — per hop a RING frame (header, stage, hop count, the addresses of
// the hops still to go, block count, and per block its coordinates, CRC,
// length and kind byte) and a RING_OK ack.
func TestTCPNarrowedBroadcastReachesOnlyReceivers(t *testing.T) {
	workers := make([]*Worker, 4)
	addrs := make([]string, 4)
	for i := range addrs {
		workers[i], addrs[i] = startWorker(t, WorkerConfig{})
	}
	c := dist.NewCluster(dist.Config{WorkerAddrs: addrs, LocalParallelism: 1})
	c.SetTransport(fastTCP(t, addrs...))
	ctx := context.Background()
	g := matrix.NewDenseGrid(12, 8, 4) // 3 x 2 dense blocks
	for i := 0; i < 12; i++ {
		for j := 0; j < 8; j++ {
			g.Set(i, j, float64(i*8+j)+0.5)
		}
	}
	m := dist.NewDistMatrix(g, dep.Row)
	to := []int{2, 0}
	// The first ring dials the first hop; measure the second, on open links.
	if _, err := c.Broadcast(ctx, m, 1, to); err != nil {
		t.Fatal(err)
	}
	before := c.Net().Snapshot()
	if _, err := c.Broadcast(ctx, m, 2, to); err != nil {
		t.Fatal(err)
	}
	after := c.Net().Snapshot()
	hops := []int{0, 2} // the ring's order: ascending
	blocks := g.BlockRows() * g.BlockCols()
	for w, want := range []int{blocks, 0, blocks, 0} {
		if got := workers[w].BlockCount(); got != want {
			t.Errorf("worker %d holds %d blocks, want %d", w, got, want)
		}
	}
	charge := after.CommBytes - before.CommBytes
	if charge != 2*g.MemBytes() {
		t.Errorf("model charged %d B, want 2|A| = %d", charge, 2*g.MemBytes())
	}
	var framing int64
	for i := range hops {
		framing += frameHdrLen + 4 + 2 + 4 + int64(blocks)*(smallPayload+1)
		for _, h := range hops[i+1:] {
			framing += 2 + int64(len(addrs[h]))
		}
		framing += frameHdrLen + smallPayload // the hop's RING_OK
	}
	wire := after.WireBytes - before.WireBytes
	if wire-framing != charge {
		t.Errorf("wire %d B minus framing %d B = %d B, want the model's %d B", wire, framing, wire-framing, charge)
	}
	if frames := after.WireFrames - before.WireFrames; frames != 2*int64(len(hops)) {
		t.Errorf("%d frames on the wire, want a RING and a RING_OK per receiver: %d", frames, 2*len(hops))
	}
}
