package transport

import (
	"context"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"dmac/internal/dep"
	"dmac/internal/dist"
	"dmac/internal/workload"
)

// putFraming is the wire overhead of one PUT beyond its dense block's bytes:
// the frame header, the stage and block head (coordinates, CRC, length),
// the kind byte, and the PUT_OK answer's header.
const putFraming = frameHdrLen + smallPayload + 1 + frameHdrLen

// TestTCPCPMMShuffleSparesOwners is the owner rule of the CPMM shuffle over
// loopback TCP on random dense cases: products of random shape and block
// size into a Row or a Col output, with none, one or two workers dead, and
// inner dimensions of fewer block-columns than workers among them. Each
// sender, an alive owner of A's block-columns, ships its partial of every
// output block to the block's owner unless it is that owner, one PUT each:
// the model charges Σ over output blocks of the block's bytes × those
// senders, the wire carries that charge plus each PUT's framing, and each
// alive worker stores exactly the output blocks it owns and is sent a
// partial of. (A dense block's encoding is its modelled bytes and a kind
// byte; TestCPMMShuffleSparesOwners in dist covers sparse blocks.) Each case
// multiplies twice and measures the second, on open links.
func TestTCPCPMMShuffleSparesOwners(t *testing.T) {
	workers := make([]*Worker, 4)
	addrs := make([]string, 4)
	for i := range addrs {
		workers[i], addrs[i] = startWorker(t, WorkerConfig{})
	}
	tr := fastTCP(t, addrs...)
	ctx := context.Background()
	for seed := int64(0); seed < 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := dist.NewCluster(dist.Config{WorkerAddrs: addrs, LocalParallelism: 1})
		c.SetTransport(tr)
		dead := map[int]bool{}
		for kills := rng.Intn(3); len(dead) < kills; {
			w := rng.Intn(4)
			if c.KillWorker(w) {
				dead[w] = true
			}
		}
		var alive []int
		for w := 0; w < 4; w++ {
			if !dead[w] {
				alive = append(alive, w)
			}
		}
		heir := func(w int) int {
			if dead[w] {
				return alive[w%len(alive)] // the survivor holding its blocks
			}
			return w
		}

		bs := 2 + rng.Intn(5)
		inner := 1 + rng.Intn(6*bs)
		ga := workload.DenseRandom(2*seed, 1+rng.Intn(30), inner, bs)
		gb := workload.DenseRandom(2*seed+1, inner, 1+rng.Intn(30), bs)
		a, b := dist.NewDistMatrix(ga, dep.Col), dist.NewDistMatrix(gb, dep.Row)
		outScheme := []dep.Scheme{dep.Row, dep.Col}[rng.Intn(2)]

		var senders []int
		for bj := 0; bj < ga.BlockCols(); bj++ {
			senders = append(senders, heir(bj%4))
		}
		slices.Sort(senders)
		senders = slices.Compact(senders)

		stage := 2 * int(seed)
		if _, err := c.Multiply(ctx, a, b, dist.CPMM, outScheme, stage+1); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		before := c.Net().Snapshot()
		out, err := c.Multiply(ctx, a, b, dist.CPMM, outScheme, stage+2)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		after := c.Net().Snapshot()

		var charge, puts int64
		want := make([]map[[2]int]bool, 4)
		for w := range want {
			want[w] = map[[2]int]bool{}
		}
		for bi := 0; bi < out.BlockRows(); bi++ {
			for bj := 0; bj < out.BlockCols(); bj++ {
				owner := heir(bi % 4)
				if outScheme == dep.Col {
					owner = heir(bj % 4)
				}
				for _, s := range senders {
					if s != owner {
						charge += out.BlockBytes(bi, bj)
						puts++
						want[owner][[2]int{bi, bj}] = true
					}
				}
			}
		}
		if got := after.CommBytes - before.CommBytes; got != charge {
			t.Errorf("seed %d: %s x %s -> %s (senders %v, dead %v) charged %d B, want %d", seed, a, b, out, senders, dead, got, charge)
		}
		if got := after.WireBytes - before.WireBytes - puts*putFraming; got != charge {
			t.Errorf("seed %d: wire less the framing of %d PUTs %d B, want the charge %d B", seed, puts, got, charge)
		}
		if got := after.WireFrames - before.WireFrames; got != 2*puts {
			t.Errorf("seed %d: %d frames, want a PUT and a PUT_OK for each of %d partials", seed, got, puts)
		}
		for w := range workers {
			if got := storedAt(workers[w], stage+2); !maps.Equal(got, want[w]) {
				t.Errorf("seed %d: worker %d stores %v, want %v", seed, w, got, want[w])
			}
		}
	}
}
