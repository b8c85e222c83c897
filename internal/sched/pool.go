package sched

import (
	"slices"
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
// The free list holds what the last Reclaim released and, beside it, the
// blocks earlier releases left that nobody took, the newest first, up to
// the bytes of the largest single release the pool has seen; older ones are
// dropped to the garbage collector. So a served slot whose jobs differ in
// shape still finds the blocks the last job of a shape released, and a pool
// never pins more than two runs' dead blocks beside the live set.
type BlockPool struct {
	mu    sync.Mutex
	owned map[*matrix.DenseBlock]struct{}
	// free holds each shape's dead blocks in release order, the newest at
	// the end, where take looks first.
	free map[blockShape][]freeBlock
	// releases counts Reclaims; keep is the largest release's bytes.
	releases int
	keep     int64
}

type blockShape struct{ rows, cols int }

// freeBlock is a dead block and the Reclaim that released it.
type freeBlock struct {
	b       *matrix.DenseBlock
	release int
}

// NewBlockPool returns an empty pool.
func NewBlockPool() *BlockPool {
	return &BlockPool{owned: make(map[*matrix.DenseBlock]struct{}), free: make(map[blockShape][]freeBlock)}
}

// take returns an owned rows x cols block: one from the free list when one
// of those exact dimensions is there, a fresh zeroed one otherwise. A reused
// block keeps its old contents unless zero is set.
func (p *BlockPool) take(rows, cols int, zero bool) *matrix.DenseBlock {
	k := blockShape{rows, cols}
	p.mu.Lock()
	var b *matrix.DenseBlock
	if l := p.free[k]; len(l) > 0 {
		b = l[len(l)-1].b
		l[len(l)-1] = freeBlock{} // the list's array must not keep b alive
		p.free[k] = l[:len(l)-1]
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

// Bytes reports the bytes of the blocks the pool holds: the owned blocks
// and the free list's.
func (p *BlockPool) Bytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for b := range p.owned {
		n += b.MemBytes()
	}
	for _, l := range p.free {
		for _, f := range l {
			n += f.b.MemBytes()
		}
	}
	return n
}

// Reclaim moves the owned blocks that live does not hold to the free list
// and drops them from the owned set. Of what earlier releases left on the
// free list untaken, it keeps the newest blocks while their bytes fit in
// the largest release seen so far, this one included (dropOldest).
// live must hold every owned block anything can still reach. No batch may
// be taking from the pool meanwhile. A steady iteration, which took all the
// last release held, reclaims without allocating: each shape's list keeps
// its array.
func (p *BlockPool) Reclaim(live map[*matrix.DenseBlock]bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var released int64
	for b := range p.owned {
		if !live[b] {
			released += b.MemBytes()
		}
	}
	p.keep = max(p.keep, released)
	p.dropOldest()
	p.releases++
	for b := range p.owned {
		if !live[b] {
			delete(p.owned, b)
			k := blockShape{b.Rows(), b.Cols()}
			p.free[k] = append(p.free[k], freeBlock{b, p.releases})
		}
	}
	for k, l := range p.free {
		if len(l) == 0 {
			delete(p.free, k)
		}
	}
}

// dropOldest drops the free list's oldest blocks until the rest fit in keep
// bytes: every release before the newest one that does not fit whole, and
// of that one as many blocks as the bound asks, whichever they are.
func (p *BlockPool) dropOldest() {
	var total int64
	for _, l := range p.free {
		for _, f := range l {
			total += f.b.MemBytes()
		}
	}
	if total <= p.keep {
		return
	}
	bytes := make(map[int]int64)
	for _, l := range p.free {
		for _, f := range l {
			bytes[f.release] += f.b.MemBytes()
		}
	}
	rels := make([]int, 0, len(bytes))
	for r := range bytes {
		rels = append(rels, r)
	}
	slices.Sort(rels)
	cut, kept := 0, int64(0)
	for i := len(rels) - 1; cut == 0; i-- {
		if kept += bytes[rels[i]]; kept > p.keep {
			cut = rels[i]
		}
	}
	excess := kept - p.keep
	for k, l := range p.free {
		i := 0
		for i < len(l) && (l[i].release < cut || l[i].release == cut && excess > 0) {
			if l[i].release == cut {
				excess -= l[i].b.MemBytes()
			}
			i++
		}
		n := copy(l, l[i:])
		clear(l[n:])
		p.free[k] = l[:n]
	}
}
