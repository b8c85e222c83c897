package sched

import (
	"sync"

	"dmac/internal/matrix"
)

// BlockPool is the result buffer pool of the paper's local executor
// (Section 5.3): the dense result blocks one engine's runs allocate, and the
// free list of those no session can reach any more. An engine installs its
// pool on the executor for the length of a run (Executor.SetPool); every
// dense result block the run's tasks take is then owned by the pool. The
// engine decides when an owned block is dead: Disown marks blocks that leave
// it (a grid handed to a caller), Reclaim returns the owned blocks that
// nothing in the session reaches to the free list. The next run's takes
// reuse them, so a steady iteration allocates no result blocks at all.
//
// The free list holds at most what the last Reclaim released: older blocks
// nobody took are dropped to the garbage collector, so a pool never pins
// more than one run's dead blocks beside the live set.
type BlockPool struct {
	mu    sync.Mutex
	owned map[*matrix.DenseBlock]struct{}
	free  map[blockShape][]*matrix.DenseBlock
}

type blockShape struct{ rows, cols int }

// NewBlockPool returns an empty pool.
func NewBlockPool() *BlockPool {
	return &BlockPool{owned: make(map[*matrix.DenseBlock]struct{})}
}

// take returns an owned rows x cols block: one from the free list when one
// of those exact dimensions is there, a fresh zeroed one otherwise. A reused
// block keeps its old contents unless zero is set.
func (p *BlockPool) take(rows, cols int, zero bool) *matrix.DenseBlock {
	k := blockShape{rows, cols}
	p.mu.Lock()
	var b *matrix.DenseBlock
	if l := p.free[k]; len(l) > 0 {
		b, p.free[k] = l[len(l)-1], l[:len(l)-1]
	}
	p.mu.Unlock()
	if b == nil {
		b = matrix.NewDense(rows, cols)
	} else if zero {
		b.Zero()
	}
	p.mu.Lock()
	p.owned[b] = struct{}{}
	p.mu.Unlock()
	return b
}

// Disown gives up the pool's claim on every block of g: they belong to
// whoever holds g from now on and are never reused.
func (p *BlockPool) Disown(g *matrix.Grid) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.owned) == 0 {
		return
	}
	for bi := 0; bi < g.BlockRows(); bi++ {
		for bj := 0; bj < g.BlockCols(); bj++ {
			if d, ok := g.Block(bi, bj).(*matrix.DenseBlock); ok {
				delete(p.owned, d)
			}
		}
	}
}

// Owned reports how many blocks the pool owns, free list excluded.
func (p *BlockPool) Owned() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.owned)
}

// Reclaim makes the free list exactly the owned blocks that live does not
// hold, and drops them from the owned set. live must hold every owned block
// anything can still reach. No batch may be taking from the pool meanwhile.
func (p *BlockPool) Reclaim(live map[*matrix.DenseBlock]bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	free := make(map[blockShape][]*matrix.DenseBlock)
	for b := range p.owned {
		if !live[b] {
			delete(p.owned, b)
			k := blockShape{b.Rows(), b.Cols()}
			free[k] = append(free[k], b)
		}
	}
	p.free = free
}
