package engine

import (
	"container/list"
	"fmt"
	"strings"
	"sync"

	"dmac/internal/core"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/rewrite"
)

// signaturePrefix versions every program signature. The "ps" component is
// the serialization format; the "rw" component is the rewrite-pass rule
// version (rewrite.Version). Because the plan cache keys on the signature of
// the canonical *rewritten* program, a binary with a different rewrite-rule
// set must never be served an entry produced under the old one — bumping
// either component makes every stale key miss. The multiply-kernel generation
// is deliberately absent: a plan is a function of the planner, the program,
// the workers and the cached schemes, not of how a block product is computed.
var signaturePrefix = fmt.Sprintf("ps1;rw%d|", rewrite.Version)

// ProgramSignature serializes the structure of a program into a canonical
// string: every node in construction order with its kind, operands (with
// transpose flags), shapes, sparsity estimates and scalar payloads, plus the
// program's assignments and scalar outputs. Two structurally identical
// programs — even distinct *expr.Program objects built by different jobs —
// share a signature, which is what lets a PlanCache hand a plan generated
// for one job to another.
//
// Node IDs are program-local construction indices, so they are stable across
// identical rebuilds and safe to embed.
func ProgramSignature(p *expr.Program) string {
	var b strings.Builder
	b.WriteString(signaturePrefix)
	ref := func(r expr.Ref) {
		if r.Transposed {
			fmt.Fprintf(&b, "m%dT", r.Node.ID)
		} else {
			fmt.Fprintf(&b, "m%d", r.Node.ID)
		}
	}
	for _, n := range p.Nodes() {
		fmt.Fprintf(&b, "%d:%d:%q:%dx%d:%g", n.ID, int(n.Kind), n.Name, n.Rows, n.Cols, n.Sparsity)
		switch n.Kind {
		case expr.KindCell:
			fmt.Fprintf(&b, ":%d", int(n.BinOp))
		case expr.KindScalar:
			fmt.Fprintf(&b, ":%d:%g:%q", int(n.ScalarOp), n.Const, n.Param)
		case expr.KindUFunc:
			fmt.Fprintf(&b, ":%d", int(n.UFunc))
		case expr.KindFused:
			// Link by link: kind, operator, scalar payload and operands
			// (i: input, l: link).
			for _, l := range n.Tree.Links {
				fmt.Fprintf(&b, ":%d.%d.%d.%d.%g.%q", int(l.Kind), int(l.BinOp), int(l.ScalarOp), int(l.UFunc), l.Const, l.Param)
				for _, a := range []matrix.CellArg{l.A, l.B} {
					if a.Link {
						fmt.Fprintf(&b, ".l%d", a.Idx)
					} else {
						fmt.Fprintf(&b, ".i%d", a.Idx)
					}
				}
			}
		}
		b.WriteByte('(')
		for i, in := range n.Inputs {
			if i > 0 {
				b.WriteByte(',')
			}
			ref(in)
		}
		b.WriteString(");")
	}
	b.WriteByte('|')
	for _, a := range p.Assignments() {
		fmt.Fprintf(&b, "%q=", a.Name)
		ref(a.Ref)
		b.WriteByte(';')
	}
	b.WriteByte('|')
	for _, so := range p.ScalarOuts() {
		fmt.Fprintf(&b, "%q=m%d;", so.Name, so.Node.ID)
	}
	return b.String()
}

// PlanCache is a bounded LRU of generated plans, keyed by what a plan is made
// from (the engine's planInput): the rewritten program's ProgramSignature,
// the planner, whether the rewrite pass ran, the worker count, the ablation
// flags and the cached schemes of the variables the program reads. Every
// engine owns one; SetSharedPlanCache lets a fleet of engines serving many
// tenants share one, so structurally identical programs — fresh
// *expr.Program objects every time — reuse a plan any engine of the same
// planner already generated.
//
// Plans are immutable after generation (the engine only reads Ops, Values and
// the embedded program), so sharing one *core.Plan across engines running on
// different goroutines is safe. All methods are safe for concurrent use; a
// nil *PlanCache is a valid no-op receiver.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	lru     list.List // of planCacheItem, front = most recent
	hits    int64
	misses  int64
}

type planCacheItem struct {
	key  string
	plan *core.Plan
}

// NewPlanCache creates a plan cache holding at most capacity plans (<= 0
// means a default of 128).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = 128
	}
	return &PlanCache{cap: capacity, entries: make(map[string]*list.Element)}
}

// Get returns the cached plan for the signature, or nil. A hit refreshes the
// entry's recency.
func (c *PlanCache) Get(sig string) *core.Plan {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[sig]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(planCacheItem).plan
}

// Put stores a plan under the signature, evicting the least recently used
// entry when the cache is full.
func (c *PlanCache) Put(sig string, plan *core.Plan) {
	if c == nil || plan == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[sig]; ok {
		c.lru.MoveToFront(el)
		el.Value = planCacheItem{key: sig, plan: plan}
		return
	}
	c.entries[sig] = c.lru.PushFront(planCacheItem{key: sig, plan: plan})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(planCacheItem).key)
	}
}

// Stats reports cumulative hits and misses and the current entry count.
func (c *PlanCache) Stats() (hits, misses int64, entries int) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.lru.Len()
}
