package serve

import (
	"container/list"
	"sync"

	"dmac/internal/workload"
)

// jobCache is a bounded-bytes LRU of built registry jobs keyed by
// (workload, canonical params). Within one service a job's block size is a
// pure function of the same two (Engine.BlockSizeFor on the slots' one
// cluster shape), registry builds are pure functions of that key, and
// nothing mutates a BuiltJob after construction — Bind wraps each input grid
// in a fresh DistMatrix and materialization replaces grid pointers instead of
// rewriting blocks — so one cached build can be bound into any number of
// concurrent engines. Repeat tenants re-submitting the same parameterized
// workload skip both the generator and the per-grid partitioning cost.
type jobCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[string]*list.Element
	lru      list.List // of jobCacheItem, front = most recent
	hits     int64
	misses   int64
}

type jobCacheItem struct {
	key   string
	job   *workload.BuiltJob
	bytes int64
}

// newJobCache bounds the cache by total input bytes.
func newJobCache(maxBytes int64) *jobCache {
	return &jobCache{maxBytes: maxBytes, entries: make(map[string]*list.Element)}
}

// jobCacheKey canonicalizes a registry build request.
func jobCacheKey(name string, params workload.Params) string {
	return name + "|" + params.Key()
}

func (c *jobCache) get(key string) *workload.BuiltJob {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(jobCacheItem).job
}

func (c *jobCache) put(key string, j *workload.BuiltJob) {
	b := j.InputBytes()
	if b > c.maxBytes {
		return // larger than the whole cache: never admit
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	c.entries[key] = c.lru.PushFront(jobCacheItem{key: key, job: j, bytes: b})
	c.bytes += b
	for c.bytes > c.maxBytes {
		oldest := c.lru.Back()
		it := oldest.Value.(jobCacheItem)
		c.lru.Remove(oldest)
		delete(c.entries, it.key)
		c.bytes -= it.bytes
	}
}

func (c *jobCache) stats() (hits, misses int64, entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.lru.Len(), c.bytes
}
