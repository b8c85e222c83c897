package transport

import (
	"context"
	"testing"

	"dmac/internal/dep"
	"dmac/internal/dist"
	"dmac/internal/matrix"
)

// TestTCPNarrowedBroadcastReachesOnlyReceivers rings a broadcast to two of
// four TCP workers. The Row matrix's three block-rows (two blocks each) are
// on workers 0, 1 and 2; each goes only to the receivers that do not own it,
// one ring per owner: block-row 0 to worker 2, block-row 1 to 0 and 2,
// block-row 2 to worker 0. So only the two receivers store blocks, four
// each, the model charges 4/3 |A|, and the measured wire traffic is exactly
// that payload plus the rings' framing (ringFraming). A second run then reads the
// replica, as a session keeps it, next to a partner whose one block-column
// is on worker 0, a receiver: it rings nothing and charges no byte.
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
	replica, err := c.Broadcast(ctx, m, 2, to)
	if err != nil {
		t.Fatal(err)
	}
	after := c.Net().Snapshot()
	// One ring per owner, each in ascending order over the receivers less
	// the owner.
	groups := []ringGroup{{hops: []int{2}, blocks: 2}, {hops: []int{0, 2}, blocks: 2}, {hops: []int{0}, blocks: 2}}
	stored := []int{4, 0, 4, 0}
	for w, want := range stored {
		if got := workers[w].BlockCount(); got != want {
			t.Errorf("worker %d holds %d blocks, want %d", w, got, want)
		}
	}
	charge := after.CommBytes - before.CommBytes
	if charge != 4*g.MemBytes()/3 {
		t.Errorf("model charged %d B, want 4/3 |A| = %d", charge, 4*g.MemBytes()/3)
	}
	framing, frames := ringFraming(addrs, groups)
	wire := after.WireBytes - before.WireBytes
	if wire-framing != charge {
		t.Errorf("wire %d B minus framing %d B = %d B, want the model's %d B", wire, framing, wire-framing, charge)
	}
	if got := after.WireFrames - before.WireFrames; got != frames {
		t.Errorf("%d frames on the wire, want a RING and a RING_OK per hop of each ring: %d", got, frames)
	}

	c.BeginRun()
	partner := dist.NewDistMatrix(matrix.NewDenseGrid(8, 4, 4), dep.Col)
	if _, err := c.Multiply(ctx, replica, partner, dist.RMM1, dep.SchemeNone, 1); err != nil {
		t.Fatalf("second run: %v", err)
	}
	end := c.Net().Snapshot()
	if end.CommBytes != after.CommBytes || end.WireBytes != after.WireBytes || end.WireFrames != after.WireFrames {
		t.Errorf("second run charged %d B and sent %d B in %d frames, want none",
			end.CommBytes-after.CommBytes, end.WireBytes-after.WireBytes, end.WireFrames-after.WireFrames)
	}
	for w, want := range stored {
		if got := workers[w].BlockCount(); got != want {
			t.Errorf("after the second run worker %d holds %d blocks, want %d", w, got, want)
		}
	}
}

// ringGroup is one ring of a broadcast: its hops, in ring order, and the
// number of blocks it carries.
type ringGroup struct {
	hops   []int
	blocks int
}

// ringFraming is the wire overhead of a broadcast's rings beyond the block
// bytes, and their frame count: per hop a RING frame (header, stage, hop
// count, the addresses of the hops still to go, block count, and per block
// its coordinates, CRC, length and kind byte) and a RING_OK ack.
func ringFraming(addrs []string, groups []ringGroup) (bytes, frames int64) {
	for _, g := range groups {
		for i := range g.hops {
			bytes += frameHdrLen + 4 + 2 + 4 + int64(g.blocks)*(smallPayload+1)
			for _, h := range g.hops[i+1:] {
				bytes += 2 + int64(len(addrs[h]))
			}
			bytes += frameHdrLen + smallPayload // the hop's RING_OK
			frames += 2
		}
	}
	return bytes, frames
}
