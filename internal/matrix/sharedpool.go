package matrix

import "sync"

// sharedCap bounds what a sharedPool keeps: more objects than a warm run's
// block tasks hold of one kind at once, which is what it keeps in steady
// state. An object put back beyond it is left to the collector.
const sharedCap = 64

// sharedPool is a free list every P takes from and puts back to. A sync.Pool
// keeps a P's last Put in that P's private slot, which no other P can take:
// a kernel whose products alternate between Ps (GNMF's independent products
// run on two goroutines, block tasks on any) misses there on every other
// call and allocates. The pool keeps the objects a warm run cycles through
// for good, at most sharedCap of them, instead of dropping them at a
// collection.
type sharedPool[T any] struct {
	mu   sync.Mutex
	free []*T
}

// get takes an object off the list, or returns nil when it is empty.
func (p *sharedPool[T]) get() *T {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return nil
	}
	v := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return v
}

func (p *sharedPool[T]) put(v *T) {
	p.mu.Lock()
	if len(p.free) < sharedCap {
		p.free = append(p.free, v)
	}
	p.mu.Unlock()
}
