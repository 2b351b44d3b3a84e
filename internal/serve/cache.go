package serve

import (
	"container/list"
	"sync"
)

// cacheKey identifies a ranked-query result. The model version is part of
// the key, so hot-reloading a newer checkpoint implicitly invalidates every
// cached result from the previous model — stale entries just stop being
// looked up and age out of the LRU order.
type cacheKey struct {
	version         uint64
	kind            Kind
	mode, k, lo, hi int  // lo, hi: Query.span
	anchor          Cond // Query.Anchor
	// exclude and conds are the request's exkey and condkey: queries
	// differing only in those must not share a cached result. "" = none.
	exclude, conds string
}

type cacheEntry struct {
	key cacheKey
	val []Scored
}

// lruCache is a bounded LRU of ranked results for the hot-row traffic that
// dominates recommender serving (Zipf-skewed row popularity). It is shared
// by direct and batched query paths, so a plain mutex guards it; the
// critical sections are pointer moves only.
type lruCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recent
	m   map[cacheKey]*list.Element
}

// newLRUCache returns a cache bounded at capacity entries; capacity <= 0
// returns nil, and a nil cache safely misses and drops every operation.
func newLRUCache(capacity int) *lruCache {
	if capacity <= 0 {
		return nil
	}
	return &lruCache{cap: capacity, ll: list.New(), m: make(map[cacheKey]*list.Element, capacity)}
}

func (c *lruCache) get(k cacheKey) ([]Scored, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

func (c *lruCache) put(k cacheKey, v []Scored) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		el.Value.(*cacheEntry).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.m[k] = c.ll.PushFront(&cacheEntry{key: k, val: v})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
	}
}

func (c *lruCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
