package transport

import (
	"context"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dmac/internal/dep"
	"dmac/internal/dist"
	"dmac/internal/workload"
)

// storedAt returns the blocks w holds for stage: none when the last blocks
// it stored were another stage's.
func storedAt(w *Worker, stage int) map[[2]int]bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := map[[2]int]bool{}
	if w.stage == stage {
		for k := range w.blocks {
			out[[2]int{k.bi, k.bj}] = true
		}
	}
	return out
}

// TestTCPBroadcastGathersToNonOwners is the all-gather rule over loopback
// TCP on random cases: dense grids of random shape and block size under Row,
// Col and hash placement, half of them as transpose views, broadcast to
// every worker or a random subset, with none, one or two workers dead. (A
// dense block's encoding is its modelled bytes and a kind byte; a sparse
// one's differs from its model charge, which TestBroadcastGathersToNonOwners
// in dist covers.) Each
// alive worker stores exactly the blocks of the broadcast it receives and
// does not own; the model charges Σ over blocks of the block's bytes × the
// receivers that do not own it; and the wire carries that charge plus the
// framing of one ring per owner over the receivers less that owner
// (ringFraming). Each case broadcasts twice and measures the second, on open
// links.
func TestTCPBroadcastGathersToNonOwners(t *testing.T) {
	workers := make([]*Worker, 4)
	addrs := make([]string, 4)
	for i := range addrs {
		workers[i], addrs[i] = startWorker(t, WorkerConfig{})
	}
	tr := fastTCP(t, addrs...)
	ctx := context.Background()
	schemes := []dep.Scheme{dep.Row, dep.Col, dep.SchemeNone}
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
		var to []int
		if rng.Intn(2) == 0 {
			for w := 0; w < 4; w++ {
				if rng.Intn(2) == 0 {
					to = append(to, w)
				}
			}
			if len(to) == 0 {
				to = []int{rng.Intn(4)}
			}
		}
		var recv []int
		for w := 0; w < 4; w++ {
			if to == nil || slices.Contains(to, w) {
				r := w
				if dead[w] {
					r = alive[w%len(alive)] // the survivor holding its blocks
				}
				recv = append(recv, r)
			}
		}
		slices.Sort(recv)
		recv = slices.Compact(recv)

		g := workload.DenseRandom(seed, 1+rng.Intn(30), 1+rng.Intn(30), 2+rng.Intn(6))
		m := dist.NewDistMatrix(g, schemes[rng.Intn(len(schemes))])
		if rng.Intn(2) == 0 {
			m = c.Transpose(ctx, m)
		}

		var charge int64
		var groups []ringGroup
		want := make([]map[[2]int]bool, 4)
		for w := range want {
			want[w] = map[[2]int]bool{}
		}
		for owner := 0; owner < 4; owner++ {
			var hops []int
			for _, r := range recv {
				if r != owner {
					hops = append(hops, r)
				}
			}
			n := 0
			for bi := 0; bi < m.BlockRows(); bi++ {
				for bj := 0; bj < m.BlockCols(); bj++ {
					if c.Owner(m, bi, bj) != owner {
						continue
					}
					n++
					charge += int64(len(hops)) * m.BlockBytes(bi, bj)
					for _, h := range hops {
						want[h][[2]int{bi, bj}] = true
					}
				}
			}
			if n > 0 && len(hops) > 0 {
				groups = append(groups, ringGroup{hops: hops, blocks: n})
			}
		}

		stage := 2 * int(seed)
		if _, err := c.Broadcast(ctx, m, stage+1, to); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		before := c.Net().Snapshot()
		if _, err := c.Broadcast(ctx, m, stage+2, to); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		after := c.Net().Snapshot()
		if got := after.CommBytes - before.CommBytes; got != charge {
			t.Errorf("seed %d: broadcast of %s to %v (dead %v) charged %d B, want %d", seed, m, to, dead, got, charge)
		}
		framing, frames := ringFraming(addrs, groups)
		if got := after.WireBytes - before.WireBytes - framing; got != charge {
			t.Errorf("seed %d: wire less framing %d B, want the charge %d B", seed, got, charge)
		}
		if got := after.WireFrames - before.WireFrames; got != frames {
			t.Errorf("seed %d: %d frames, want %d", seed, got, frames)
		}
		for w := range workers {
			if dead[w] {
				want[w] = map[[2]int]bool{}
			}
			if got := storedAt(workers[w], stage+2); !maps.Equal(got, want[w]) {
				t.Errorf("seed %d: worker %d stores %v, want %v", seed, w, got, want[w])
			}
		}
	}
}

// TestTCPConcurrentBroadcastsFinish issues pairs of full broadcasts at once
// on one TCP transport. Each is one ring per owner, rings over every worker
// but one, so the two broadcasts' rings cross at every worker; each ring
// keeps its hops in ascending order, so no two wait on each other's forward
// links in a cycle, and every broadcast finishes with its charge.
func TestTCPConcurrentBroadcastsFinish(t *testing.T) {
	addrs := make([]string, 4)
	for i := range addrs {
		_, addrs[i] = startWorker(t, WorkerConfig{})
	}
	c := dist.NewCluster(dist.Config{WorkerAddrs: addrs, LocalParallelism: 1})
	c.SetTransport(fastTCP(t, addrs...))
	ctx := context.Background()
	g := workload.DenseRandom(1, 8, 64, 8) // 8 block-columns, two on each worker
	m := dist.NewDistMatrix(g, dep.Col)
	for round := 0; round < 8; round++ {
		before := c.Net().Snapshot()
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = c.Broadcast(ctx, m, 1, nil)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d: broadcast %d: %v", round, i, err)
			}
		}
		if got := c.Net().Snapshot().CommBytes - before.CommBytes; got != 2*3*g.MemBytes() {
			t.Errorf("round %d: the two broadcasts charged %d B, want 2 × 3|A| = %d", round, got, 2*3*g.MemBytes())
		}
	}
}
