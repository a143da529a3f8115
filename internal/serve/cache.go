package serve

import (
	"container/list"
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"gdsx"
)

// Entry is one cached transform-pipeline result: the compiled native
// program and its transform (profiling + expansion — the expensive
// part), which carries the compiled expanded program. Entries are
// immutable after construction.
//
// Machine-level closure compilation is deliberately NOT cached: the
// compiled closures capture their Machine, so each run builds its own.
// What the cache removes is the parse→sema→profile→expand pipeline,
// which dominates small-request latency.
type Entry struct {
	Native *gdsx.Program
	Tr     *gdsx.TransformResult
	// Err is set instead of the programs when the pipeline rejected the
	// source; caching rejections keeps a thundering herd of the same
	// broken source from re-running sema each time.
	Err *Error
	// transient marks an Err that depends on the building request's
	// circumstances (its deadline, its quota) rather than the source
	// itself; such entries are evicted after delivery instead of
	// poisoning the key for later, better-resourced requests.
	transient bool
}

type cacheKey struct {
	hash  [sha256.Size]byte
	guard bool
}

type cacheSlot struct {
	key   cacheKey
	entry *Entry
}

type flightCall struct {
	done  chan struct{}
	entry *Entry
}

// Cache is the LRU transform cache with single-flight deduplication:
// concurrent requests for the same (source, guard) key compile once,
// and everyone — leader and followers — gets the same Entry. The key
// hashes the combined Input+Source text plus the guard flag, the only
// option that changes the transform itself (everything else is a
// run-time knob).
type Cache struct {
	mu     sync.Mutex
	max    int
	lru    *list.List // front = most recent; values are *cacheSlot
	slots  map[cacheKey]*list.Element
	flight map[cacheKey]*flightCall

	hits   atomic.Int64
	misses atomic.Int64
}

// NewCache returns a cache bounded to max entries (minimum 1).
func NewCache(max int) *Cache {
	if max < 1 {
		max = 1
	}
	return &Cache{
		max:    max,
		lru:    list.New(),
		slots:  map[cacheKey]*list.Element{},
		flight: map[cacheKey]*flightCall{},
	}
}

// Key computes the cache key for a request.
func Key(source string, guard bool) cacheKey {
	return cacheKey{hash: sha256.Sum256([]byte(source)), guard: guard}
}

// Remove evicts key if resident (transient build failures must not
// stick).
func (c *Cache) Remove(key cacheKey) {
	c.mu.Lock()
	if el, ok := c.slots[key]; ok {
		c.lru.Remove(el)
		delete(c.slots, key)
	}
	c.mu.Unlock()
}

// Stats returns cumulative hit/miss counts.
func (c *Cache) Stats() (hits, misses int64) { return c.hits.Load(), c.misses.Load() }

// Len returns the resident entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Get returns the entry for key, building it with build on a miss.
// Exactly one caller runs build per key at a time; concurrent callers
// block on the leader's result (which they share, error or not). The
// second return reports whether the entry came from cache.
func (c *Cache) Get(key cacheKey, build func() *Entry) (*Entry, bool) {
	c.mu.Lock()
	if el, ok := c.slots[key]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		c.hits.Add(1)
		return el.Value.(*cacheSlot).entry, true
	}
	if fc, ok := c.flight[key]; ok {
		// A leader is already building this key: piggyback. Counted as a
		// hit — the request paid no pipeline cost of its own.
		c.mu.Unlock()
		<-fc.done
		c.hits.Add(1)
		return fc.entry, true
	}
	fc := &flightCall{done: make(chan struct{})}
	c.flight[key] = fc
	c.mu.Unlock()

	c.misses.Add(1)
	entry := build()
	if entry == nil {
		entry = &Entry{Err: errf(CodePanic, "transform pipeline returned nothing")}
	}
	fc.entry = entry

	c.mu.Lock()
	delete(c.flight, key)
	if _, ok := c.slots[key]; !ok {
		c.slots[key] = c.lru.PushFront(&cacheSlot{key: key, entry: entry})
		for c.lru.Len() > c.max {
			oldest := c.lru.Back()
			c.lru.Remove(oldest)
			delete(c.slots, oldest.Value.(*cacheSlot).key)
		}
	}
	c.mu.Unlock()
	close(fc.done)
	return entry, false
}
