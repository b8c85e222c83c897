package dist

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"dmac/internal/dep"
)

// TestBroadcastToReceivers: a broadcast to a strict subset of the workers
// charges each block once per receiver that does not own it and records the
// receivers; a list naming every worker, in any order and with repeats, is a
// full broadcast. The Row matrix has three equal block-rows on workers 0, 1
// and 2: to {0, 1}, block-rows 0 and 1 go to the other receiver and
// block-row 2 to both, 4/3 |A|; to all four, each block-row goes to three,
// 3|A|.
func TestBroadcastToReceivers(t *testing.T) {
	ctx := context.Background()
	c := testCluster()
	g := randGrid(rand.New(rand.NewSource(1)), 12, 12, 4, 1)
	m := NewDistMatrix(g, dep.Row)
	out, err := c.Broadcast(ctx, m, 1, []int{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Net().Snapshot()
	if s.CommBytes != 4*g.MemBytes()/3 || s.Broadcasts != 1 {
		t.Errorf("narrowed broadcast charged %d B in %d broadcasts, want 4/3 |A| = %d in 1", s.CommBytes, s.Broadcasts, 4*g.MemBytes()/3)
	}
	if got := c.receivers(nil, out); !slices.Equal(got, []int{0, 1}) || !slices.Equal(out.Reach(), []int{0, 1}) {
		t.Errorf("receivers %v, reach %v, want [0 1] both", got, out.Reach())
	}
	full, err := c.Broadcast(ctx, m, 1, []int{3, 2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if full.Reach() != nil || !slices.Equal(c.receivers(nil, full), []int{0, 1, 2, 3}) {
		t.Errorf("a broadcast to every worker has reach %v, receivers %v; want nil, all four", full.Reach(), c.receivers(nil, full))
	}
	if got := c.Net().Snapshot().CommBytes - s.CommBytes; got != 3*g.MemBytes() {
		t.Errorf("full broadcast charged %d B, want (N−1)|A| = %d", got, 3*g.MemBytes())
	}
	if tr := c.Transpose(ctx, out); !slices.Equal(tr.Reach(), []int{0, 1}) {
		t.Errorf("a transpose view of the replica has reach %v, want the replica's [0 1]", tr.Reach())
	}
}

// TestReadersStayOnReceivers is the receiver check: RMM1, RMM2 and an
// extract refuse a narrowed replica whose partner has a block on a worker it
// never reached, and accept one that reached them all; a cell-wise operator
// refuses any narrowed replica.
func TestReadersStayOnReceivers(t *testing.T) {
	ctx := context.Background()
	c := testCluster()
	rng := rand.New(rand.NewSource(2))
	a := randGrid(rng, 8, 12, 4, 1)  // 2 x 3 blocks
	bc := randGrid(rng, 12, 8, 4, 1) // 3 x 2 blocks: block-columns on workers 0, 1
	narrow, err := c.Broadcast(ctx, NewDistMatrix(a, dep.Row), 1, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := c.Broadcast(ctx, NewDistMatrix(a, dep.Row), 1, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	before := c.Net().Snapshot()
	if _, err := c.Multiply(ctx, narrow, NewDistMatrix(bc, dep.Col), RMM1, dep.SchemeNone, 2); err == nil {
		t.Error("RMM1 ran a block-column on worker 1, which the replica never reached")
	}
	if _, err := c.Multiply(ctx, NewDistMatrix(bc, dep.Row), wide, RMM2, dep.SchemeNone, 2); err == nil {
		t.Error("RMM2 ran a block-row on worker 2, which the replica never reached")
	}
	if _, err := c.Extract(ctx, narrow, dep.Col); err == nil {
		t.Error("an extract placed a block-column on worker 1, which the replica never reached")
	}
	if _, err := c.Cells(ctx, nil, []*DistMatrix{wide}, -1); err == nil {
		t.Error("a cell-wise operator read a narrowed replica")
	}
	if after := c.Net().Snapshot(); after != before {
		t.Errorf("refused readers charged %+v", after)
	}
	if _, err := c.Multiply(ctx, wide, NewDistMatrix(bc, dep.Col), RMM1, dep.SchemeNone, 2); err != nil {
		t.Errorf("RMM1 within the receivers: %v", err)
	}
	if _, err := c.Extract(ctx, wide, dep.Row); err != nil {
		t.Errorf("extract within the receivers: %v", err)
	}
	if _, err := c.Extract(ctx, narrow, dep.Row); err == nil {
		t.Error("an extract placed block-row 1 on worker 1, which the replica never reached")
	}
}

// TestNarrowedBroadcastRecovery: losing a receiver of a narrowed replica
// costs |A| (the survivor inheriting its blocks needs a copy) and makes that
// survivor a receiver; losing a non-receiver costs nothing, as losing any
// worker does a full replica.
func TestNarrowedBroadcastRecovery(t *testing.T) {
	ctx := context.Background()
	c := testCluster()
	rng := rand.New(rand.NewSource(3))
	a := randGrid(rng, 8, 8, 4, 1)
	bc := randGrid(rng, 8, 8, 4, 1) // block-columns on workers 0, 1
	narrow, err := c.Broadcast(ctx, NewDistMatrix(a, dep.Row), 1, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.Broadcast(ctx, NewDistMatrix(a, dep.Row), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for w, want := range []int64{a.MemBytes(), a.MemBytes(), 0, 0} {
		if got := c.WorkerBytes(narrow, w); got != want {
			t.Errorf("losing worker %d costs the narrowed replica %d B, want %d", w, got, want)
		}
		if got := c.WorkerBytes(full, w); got != 0 {
			t.Errorf("losing worker %d costs the full replica %d B, want 0", w, got)
		}
	}
	if !c.KillWorker(1) {
		t.Fatal("kill refused")
	}
	heir := c.Owner(NewDistMatrix(bc, dep.Col), 0, 1)
	if got := c.receivers(nil, narrow); !slices.Contains(got, heir) || slices.Contains(got, 1) {
		t.Errorf("after losing worker 1 the receivers are %v, want worker 1's heir %d and not 1", got, heir)
	}
	if _, err := c.Multiply(ctx, narrow, NewDistMatrix(bc, dep.Col), RMM1, dep.SchemeNone, 2); err != nil {
		t.Errorf("RMM1 after recovery: %v", err)
	}
}
