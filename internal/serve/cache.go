package serve

import (
	"container/list"
	"errors"
	"hash/maphash"
	"sync"

	"dmac/internal/engine"
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
//
// A build enters the cache on its key's second request only (TinyLFU's
// doorkeeper): the first put of a key records a 64-bit hash of it in seen
// and drops the build, so a one-shot job's inputs go with the job instead of
// holding cache bytes, and pushing recurring jobs out, until LRU eviction.
// seen holds at most jobCacheSeenKeys hashes and is cleared when full; a key
// leaves it when its build is admitted. Lookups stay by the full key, so a
// hash collision can at worst admit a one-shot build, never serve the wrong
// one.
//
// Concurrent requests for a key not in the cache share one build (building
// holds the build in flight). The doorkeeper counts requests, not builds: a
// build that served two requests is offered twice, so it is admitted just as
// the second of two sequential requests' builds would be.
//
// A cached build also owns where each slot's engine left its inputs
// (engine.Placement): the next job of the key on that slot binds the same
// grids and restores their partitions and broadcast replicas instead of
// moving them again, and runs its program without rewriting and signing it
// again. A placement is kept per slot, since each slot's engine is its own
// cluster, and it leaves the cache with its build.
type jobCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[string]*list.Element
	lru      list.List // of *jobCacheItem, front = most recent
	hits     int64
	misses   int64
	seed     maphash.Seed
	seen     map[uint64]struct{}
	building map[string]*jobBuild
}

// jobBuild is one registry build in flight and the requests waiting on it.
type jobBuild struct {
	done     chan struct{} // closed when job and err are set
	job      *workload.BuiltJob
	err      error
	requests int
}

// errBuildAborted is what the requests sharing a build get when the build
// panicked instead of returning.
var errBuildAborted = errors.New("serve: job build aborted")

type jobCacheItem struct {
	key   string
	job   *workload.BuiltJob
	bytes int64
	// placed holds, by slot ID, the placement of job's inputs the slot's
	// last clean run of it left.
	placed map[int]engine.Placement
}

// newJobCache bounds the cache by total input bytes.
func newJobCache(maxBytes int64) *jobCache {
	return &jobCache{
		maxBytes: maxBytes,
		entries:  make(map[string]*list.Element),
		seed:     maphash.MakeSeed(),
		seen:     make(map[uint64]struct{}),
		building: make(map[string]*jobBuild),
	}
}

// jobCacheKey canonicalizes a registry build request.
func jobCacheKey(name string, params workload.Params) string {
	return name + "|" + params.Key()
}

// getOrBuild returns key's cached build, or else the build in flight for
// key, or else runs build and offers its result to the cache once for every
// request that shared it. Every request counts as one lookup: a hit when the
// cache held the key, a miss otherwise.
func (c *jobCache) getOrBuild(key string, build func() (*workload.BuiltJob, error)) (*workload.BuiltJob, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		return el.Value.(*jobCacheItem).job, nil
	}
	c.misses++
	if b, ok := c.building[key]; ok {
		b.requests++
		c.mu.Unlock()
		<-b.done
		return b.job, b.err
	}
	b := &jobBuild{done: make(chan struct{}), err: errBuildAborted, requests: 1}
	c.building[key] = b
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.building, key)
		for i := 0; b.err == nil && i < b.requests; i++ {
			c.offerLocked(key, b.job)
		}
		c.mu.Unlock()
		close(b.done)
	}()
	b.job, b.err = build()
	return b.job, b.err
}

// offerLocked is one request's offer of a build of key: the key's first
// request records its hash and drops the build, a later one admits it, and
// once it is admitted further offers change nothing.
func (c *jobCache) offerLocked(key string, j *workload.BuiltJob) {
	if _, ok := c.entries[key]; ok {
		return
	}
	b := j.InputBytes()
	if b > c.maxBytes {
		return // larger than the whole cache: never admit
	}
	h := maphash.String(c.seed, key)
	if _, ok := c.seen[h]; !ok {
		if len(c.seen) >= jobCacheSeenKeys {
			clear(c.seen)
		}
		c.seen[h] = struct{}{}
		return
	}
	delete(c.seen, h)
	c.entries[key] = c.lru.PushFront(&jobCacheItem{key: key, job: j, bytes: b})
	c.bytes += b
	for c.bytes > c.maxBytes {
		oldest := c.lru.Back()
		it := oldest.Value.(*jobCacheItem)
		c.lru.Remove(oldest)
		delete(c.entries, it.key)
		c.bytes -= it.bytes
	}
}

// itemLocked returns key's cache entry when it holds build j. c.mu is held.
func (c *jobCache) itemLocked(key string, j *workload.BuiltJob) *jobCacheItem {
	if el, ok := c.entries[key]; ok {
		if it := el.Value.(*jobCacheItem); it.job == j {
			return it
		}
	}
	return nil
}

// placement returns the placement slot left for build j of key, while the
// cache holds that build.
func (c *jobCache) placement(key string, j *workload.BuiltJob, slot int) (engine.Placement, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if it := c.itemLocked(key, j); it != nil {
		p, ok := it.placed[slot]
		return p, ok
	}
	return engine.Placement{}, false
}

// place records p as where slot left build j of key, while the cache holds
// that build; a build the cache does not hold keeps nothing.
func (c *jobCache) place(key string, j *workload.BuiltJob, slot int, p engine.Placement) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if it := c.itemLocked(key, j); it != nil {
		if it.placed == nil {
			it.placed = make(map[int]engine.Placement)
		}
		it.placed[slot] = p
	}
}

func (c *jobCache) stats() (hits, misses int64, entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.lru.Len(), c.bytes
}
