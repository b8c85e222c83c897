package sched

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"dmac/internal/matrix"
)

// dirty fills every block on p's free list with NaN, so a task that reuses
// one without clearing or overwriting every cell cannot give the right bits.
func dirty(p *BlockPool) {
	for _, l := range p.free {
		for _, f := range l {
			for i := range f.b.Data {
				f.b.Data[i] = math.NaN()
			}
		}
	}
}

func denseBlocks(g *matrix.Grid) map[*matrix.DenseBlock]bool {
	out := make(map[*matrix.DenseBlock]bool)
	for bi := 0; bi < g.BlockRows(); bi++ {
		for bj := 0; bj < g.BlockCols(); bj++ {
			if d, ok := g.Block(bi, bj).(*matrix.DenseBlock); ok {
				out[d] = true
			}
		}
	}
	return out
}

func freeBytes(p *BlockPool) int64 {
	var n int64
	for _, l := range p.free {
		for _, f := range l {
			n += f.b.MemBytes()
		}
	}
	return n
}

// TestBlockPoolReusesResultBlocks runs each result path twice under one
// pool, with a product of other block shapes between them, as a served slot
// runs another job between two of one kind. Everything is reclaimed after
// each of the three, and the free list is poisoned before the second run:
// it must take every result block from the first run's release, kept across
// the other product's, and still give the bits of an executor without a
// pool, and the memory tracker must charge both runs alike.
func TestBlockPoolReusesResultBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randGrid(rng, 23, 17, 5, 0.3)
	b := randGrid(rng, 17, 19, 5, 1)
	c := randGrid(rng, 23, 19, 5, 1)
	d := randGrid(rng, 23, 19, 5, 1)
	// Block side 6 gives no block shape the side-5 grids above give.
	oa, ob := randGrid(rng, 13, 9, 6, 1), randGrid(rng, 9, 14, 6, 0.5)
	tree := &matrix.CellTree{Inputs: 2, Links: []matrix.CellLink{
		{Kind: matrix.LinkBin, BinOp: matrix.OpCellMul, A: matrix.CellInput(0), B: matrix.CellInput(1)},
		{Kind: matrix.LinkFunc, UFunc: matrix.FuncSigmoid, A: matrix.CellValue(0)},
	}}
	paths := map[string]func(e *Executor) (*matrix.Grid, error){
		"in-place": func(e *Executor) (*matrix.Grid, error) {
			return e.MulTrans(context.Background(), a, b, false, false, InPlace)
		},
		"buffer": func(e *Executor) (*matrix.Grid, error) {
			return e.MulTrans(context.Background(), a, b, false, false, Buffer)
		},
		"trans": func(e *Executor) (*matrix.Grid, error) {
			return e.MulTrans(context.Background(), b, a, true, true, InPlace)
		},
		"cells": func(e *Executor) (*matrix.Grid, error) {
			g, _, err := e.Cells(context.Background(), tree, []*matrix.Grid{c, d}, -1)
			return g, err
		},
	}
	for name, run := range paths {
		want, err := run(NewExecutor(3, nil))
		if err != nil {
			t.Fatal(err)
		}
		mem := NewMemTracker()
		e := NewExecutor(3, mem)
		p := NewBlockPool()
		e.SetPool(p)
		first, err := run(e)
		if err != nil {
			t.Fatal(err)
		}
		charged := mem.Current()
		owned := denseBlocks(first)
		if p.Owned() != len(owned) {
			t.Fatalf("%s: pool owns %d blocks, the result has %d", name, p.Owned(), len(owned))
		}
		p.Reclaim(nil)
		if _, err := e.MulTrans(context.Background(), oa, ob, false, false, InPlace); err != nil {
			t.Fatal(err)
		}
		p.Reclaim(nil)
		dirty(p)
		before := mem.Current()
		second, err := run(e)
		if err != nil {
			t.Fatal(err)
		}
		for blk := range denseBlocks(second) {
			if !owned[blk] {
				t.Errorf("%s: a result block was allocated although the free list held one of its shape", name)
				break
			}
		}
		if matrix.BitDiff(second, want) != "" {
			t.Errorf("%s: a reused block changed the result's bits", name)
		}
		if got := mem.Current() - before; got != charged {
			t.Errorf("%s: the memory tracker charged %d bytes for a pooled run, %d for a fresh one", name, got, charged)
		}
	}
}

// freeSet is the set of blocks on p's free list.
func freeSet(p *BlockPool) map[*matrix.DenseBlock]bool {
	out := make(map[*matrix.DenseBlock]bool)
	for _, l := range p.free {
		for _, f := range l {
			out[f.b] = true
		}
	}
	return out
}

// TestBlockPoolKeepsEarlierReleases pins the free list's bound: a Reclaim
// keeps the whole of its own release and, of what earlier releases left
// untaken, the newest releases' blocks while they fit in the largest
// release seen; the oldest go first.
func TestBlockPoolKeepsEarlierReleases(t *testing.T) {
	p := NewBlockPool()
	x, y, z := p.take(4, 4, false), p.take(4, 4, false), p.take(2, 3, false)
	p.Reclaim(map[*matrix.DenseBlock]bool{z: true})
	if p.Owned() != 1 || freeBytes(p) != x.MemBytes()+y.MemBytes() {
		t.Fatalf("first reclaim: %d owned, %d free bytes; want z owned, x and y free", p.Owned(), freeBytes(p))
	}
	u := p.take(4, 4, true)
	if u != x && u != y {
		t.Fatal("take allocated although a block of its shape was free")
	}
	for _, v := range u.Data {
		if v != 0 {
			t.Fatal("take(zero) handed back a block that was not cleared")
		}
	}
	leftover := x
	if u == x {
		leftover = y
	}
	// The second release (u and z) is smaller than the first, so the
	// first's leftover fits beside it.
	p.Reclaim(nil)
	if free := freeSet(p); p.Owned() != 0 || len(free) != 3 || !free[u] || !free[z] || !free[leftover] {
		t.Fatalf("second reclaim: %d owned, %d free blocks; want u, z and the first release's leftover free", p.Owned(), len(free))
	}
	if got := p.take(4, 4, false); got != u {
		t.Fatal("take did not hand back the newest free block of its shape")
	}
	p.Reclaim(nil)

	// Three releases of one size each, of three other shapes: a release of
	// shape B keeps shape A's blocks while they fit in the largest release,
	// and the oldest go first once they do not.
	q := NewBlockPool()
	release := func(rows, cols int) []*matrix.DenseBlock {
		bs := []*matrix.DenseBlock{q.take(rows, cols, false), q.take(rows, cols, false)}
		q.Reclaim(nil)
		return bs
	}
	a := release(8, 4)
	b := release(4, 8)
	if free := freeSet(q); len(free) != 4 || !free[a[0]] || !free[a[1]] || !free[b[0]] || !free[b[1]] {
		t.Fatalf("a release of shape B dropped shape A's free blocks: %d free, want 4", len(free))
	}
	c := release(2, 16)
	free := freeSet(q)
	if free[a[0]] || free[a[1]] {
		t.Error("the oldest release outlived a newer one past the bound")
	}
	if len(free) != 4 || !free[b[0]] || !free[b[1]] || !free[c[0]] || !free[c[1]] {
		t.Errorf("third release: %d free blocks, want the second and third releases' 4", len(free))
	}
	if freeBytes(q) > 2*q.keep {
		t.Errorf("the free list holds %d bytes, past twice the largest release (%d)", freeBytes(q), q.keep)
	}

	// The newest release that does not fit whole loses only the blocks the
	// bound asks for: two 256-byte blocks, then a 128-byte release beside
	// them, then another, which leaves room for one of the two.
	r := NewBlockPool()
	two := []*matrix.DenseBlock{r.take(8, 4, false), r.take(8, 4, false)}
	r.Reclaim(nil)
	one := r.take(2, 8, false)
	r.Reclaim(nil)
	last := r.take(4, 4, false)
	r.Reclaim(nil)
	free = freeSet(r)
	if len(free) != 3 || !free[one] || !free[last] || free[two[0]] == free[two[1]] {
		t.Errorf("partial drop: %d free blocks (first release's: %v, %v), want one of the first release's two beside the later two",
			len(free), free[two[0]], free[two[1]])
	}
}

// TestBlockPoolDisownedNeverReused: a block handed out of the pool's keeping
// is never released into the free list, reachable or not.
func TestBlockPoolDisownedNeverReused(t *testing.T) {
	e := NewExecutor(2, nil)
	p := NewBlockPool()
	e.SetPool(p)
	rng := rand.New(rand.NewSource(5))
	g, err := e.MulTrans(context.Background(), randGrid(rng, 9, 6, 4, 1), randGrid(rng, 6, 7, 4, 1), false, false, InPlace)
	if err != nil {
		t.Fatal(err)
	}
	p.Disown(g)
	p.Reclaim(nil)
	if p.Owned() != 0 || freeBytes(p) != 0 {
		t.Fatalf("after Disown and Reclaim: %d owned, %d free bytes; want none", p.Owned(), freeBytes(p))
	}
}

// TestBlockPoolOnlyWhileInstalled: an executor with no pool installed — every
// caller outside an engine run — allocates result blocks nothing owns.
func TestBlockPoolOnlyWhileInstalled(t *testing.T) {
	e := NewExecutor(2, nil)
	p := NewBlockPool()
	e.SetPool(p)
	e.SetPool(nil)
	rng := rand.New(rand.NewSource(6))
	if _, err := e.MulTrans(context.Background(), randGrid(rng, 9, 6, 4, 1), randGrid(rng, 6, 7, 4, 1), false, false, InPlace); err != nil {
		t.Fatal(err)
	}
	if p.Owned() != 0 {
		t.Fatalf("a removed pool owns %d blocks", p.Owned())
	}
}

// TestResultGridsHoldOnlyTheirBlocks: PageRank's rank %*% link shape, a row
// vector times a 6 x 6 grid of blocks, allocates its result grid (the grid
// and its slot array), each of the six result blocks (header and payload)
// and a fixed handful for the task batch — no placeholder block for the
// result to replace.
func TestResultGridsHoldOnlyTheirBlocks(t *testing.T) {
	const bs, k = 8, 6
	rng := rand.New(rand.NewSource(1))
	a := randGrid(rng, 1, k*bs, bs, 1)
	b := randGrid(rng, k*bs, k*bs, bs, 0.2)
	e := NewExecutor(1, nil)
	const batch = 10
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := e.MulTrans(context.Background(), a, b, false, false, InPlace); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(2 + 2*k + batch); allocs > want {
		t.Errorf("row vector x %dx%d blocks: %v allocations, want at most %v", k, k, allocs, want)
	}
}
