package dist

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dmac/internal/dep"
)

// ringLog is an in-process transport that records every ring it is handed:
// for each block a ring carries, the hops it reaches.
type ringLog struct {
	inprocTransport
	mu    sync.Mutex
	rings [][]int
	got   map[[3]int]int // (bi, bj, worker) -> deliveries
}

func (r *ringLog) Ring(ctx context.Context, op string, stage int, blocks []BlockXfer, hops []int) (Wire, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rings = append(r.rings, slices.Clone(hops))
	for _, x := range blocks {
		for _, h := range hops {
			r.got[[3]int{x.Bi, x.Bj, h}]++
		}
	}
	return Wire{}, nil
}

// TestBroadcastGathersToNonOwners is the all-gather rule on random cases:
// grids of random shape, block size and density under Row, Col and hash
// placement, half of them as transpose views, broadcast to every worker or
// a random subset of them, with none, one or two workers dead. The charge is
// Σ over blocks of the block's bytes × the receivers that do not own it;
// each receiver is handed exactly the blocks it does not own, once; and
// every ring visits its hops in ascending order.
func TestBroadcastGathersToNonOwners(t *testing.T) {
	ctx := context.Background()
	schemes := []dep.Scheme{dep.Row, dep.Col, dep.SchemeNone}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := testCluster()
		log := &ringLog{got: map[[3]int]int{}}
		c.SetTransport(log)
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
				return alive[w%len(alive)]
			}
			return w
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
				recv = append(recv, heir(w))
			}
		}
		slices.Sort(recv)
		recv = slices.Compact(recv)

		density := 1.0
		if rng.Intn(2) == 0 {
			density = 0.3
		}
		g := randGrid(rng, 1+rng.Intn(30), 1+rng.Intn(30), 2+rng.Intn(6), density)
		m := NewDistMatrix(g, schemes[rng.Intn(len(schemes))])
		if rng.Intn(2) == 0 {
			m = c.Transpose(ctx, m)
		}

		var want int64
		wantGot := map[[3]int]int{}
		for bi := 0; bi < m.BlockRows(); bi++ {
			for bj := 0; bj < m.BlockCols(); bj++ {
				owner := c.Owner(m, bi, bj)
				for _, r := range recv {
					if r != owner {
						want += m.BlockBytes(bi, bj)
						wantGot[[3]int{bi, bj, r}] = 1
					}
				}
			}
		}
		before := c.Net().Snapshot()
		if _, err := c.Broadcast(ctx, m, 1, to); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		after := c.Net().Snapshot()
		if got := after.CommBytes - before.CommBytes; got != want {
			t.Errorf("seed %d: broadcast of %s to %v (dead %v) charged %d B, want %d", seed, m, to, dead, got, want)
		}
		if after.Broadcasts-before.Broadcasts != 1 || after.CommEvents-before.CommEvents != 1 {
			t.Errorf("seed %d: %d broadcasts in %d events, want one of each", seed,
				after.Broadcasts-before.Broadcasts, after.CommEvents-before.CommEvents)
		}
		for k, n := range log.got {
			if wantGot[k] != n {
				t.Errorf("seed %d: block (%d,%d) handed to worker %d %d times, want %d", seed, k[0], k[1], k[2], n, wantGot[k])
			}
		}
		for k := range wantGot {
			if log.got[k] == 0 {
				t.Errorf("seed %d: block (%d,%d) never reached worker %d", seed, k[0], k[1], k[2])
			}
		}
		for _, hops := range log.rings {
			ascending := len(hops) > 0
			for i := 1; i < len(hops); i++ {
				ascending = ascending && hops[i-1] < hops[i]
			}
			if !ascending {
				t.Errorf("seed %d: ring over %v, want a non-empty, strictly ascending hop list", seed, hops)
			}
		}
	}
}
