package dist

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dmac/internal/dep"
	"dmac/internal/matrix"
)

// scatterLog is an in-process transport that records every scatter it is
// handed: for each hand-off, its (bi, bj, from, to).
type scatterLog struct {
	inprocTransport
	mu    sync.Mutex
	calls int
	got   map[[4]int]int
}

func (s *scatterLog) Scatter(ctx context.Context, op string, stage int, xfers []BlockXfer) (Wire, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	for _, x := range xfers {
		s.got[[4]int{x.Bi, x.Bj, x.From, x.To}]++
	}
	return Wire{}, nil
}

// TestCPMMShuffleSparesOwners is the owner rule of the CPMM shuffle on
// random cases: products of random shape and block size, dense and sparse,
// into a Row or a Col output, with none, one or two workers dead, and inner
// dimensions of fewer block-columns than workers among them. The senders are
// the alive owners of A's block-columns; each ships its partial of every
// output block to the block's owner unless it is that owner. The charge is Σ
// over output blocks of the block's bytes × the senders other than its
// owner, in one comm event and one transport call, and each (block, sender)
// partial reaches the block's owner exactly once.
func TestCPMMShuffleSparesOwners(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := testCluster()
		log := &scatterLog{got: map[[4]int]int{}}
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

		density := 1.0
		if rng.Intn(2) == 0 {
			density = 0.3
		}
		bs := 2 + rng.Intn(5)
		inner := 1 + rng.Intn(6*bs) // from one block-column to six
		ga := randGrid(rng, 1+rng.Intn(30), inner, bs, density)
		gb := randGrid(rng, inner, 1+rng.Intn(30), bs, density)
		a, b := NewDistMatrix(ga, dep.Col), NewDistMatrix(gb, dep.Row)
		outScheme := []dep.Scheme{dep.Row, dep.Col}[rng.Intn(2)]

		var senders []int
		for bj := 0; bj < ga.BlockCols(); bj++ {
			senders = append(senders, heir(bj%4))
		}
		slices.Sort(senders)
		senders = slices.Compact(senders)

		before := c.Net().Snapshot()
		out, err := c.Multiply(ctx, a, b, CPMM, outScheme, 1)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		after := c.Net().Snapshot()
		want, err := matrix.MulGrid(ga, gb)
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.GridEqual(out.Grid, want, 1e-9) {
			t.Errorf("seed %d: wrong product", seed)
		}

		var charge int64
		wantGot := map[[4]int]int{}
		for bi := 0; bi < out.BlockRows(); bi++ {
			for bj := 0; bj < out.BlockCols(); bj++ {
				owner := heir(bi % 4)
				if outScheme == dep.Col {
					owner = heir(bj % 4)
				}
				for _, s := range senders {
					if s != owner {
						charge += out.BlockBytes(bi, bj)
						wantGot[[4]int{bi, bj, s, owner}] = 1
					}
				}
			}
		}
		if got := after.CommBytes - before.CommBytes; got != charge {
			t.Errorf("seed %d: %s x %s -> %s (senders %v, dead %v) charged %d B, want %d", seed, a, b, out, senders, dead, got, charge)
		}
		if after.Shuffles-before.Shuffles != 1 || after.CommEvents-before.CommEvents != 1 || log.calls != 1 {
			t.Errorf("seed %d: %d shuffles in %d events and %d transport calls, want one of each", seed,
				after.Shuffles-before.Shuffles, after.CommEvents-before.CommEvents, log.calls)
		}
		for k, n := range log.got {
			if wantGot[k] != n {
				t.Errorf("seed %d: block (%d,%d) sent from worker %d to %d %d times, want %d", seed, k[0], k[1], k[2], k[3], n, wantGot[k])
			}
		}
		for k := range wantGot {
			if log.got[k] == 0 {
				t.Errorf("seed %d: worker %d's partial of block (%d,%d) never reached worker %d", seed, k[2], k[0], k[1], k[3])
			}
		}
	}
}
