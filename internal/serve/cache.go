package serve

import (
	"container/list"
	"sync"

	"exadla/internal/core"
)

type cacheKey struct {
	fp string
	lu bool
}

// factorCache is an LRU map from matrix fingerprint (plus factorization
// kind) to the finished factor, Cholesky or LU. Factors are immutable once
// inserted — warm solves only read them — so a single entry is safely
// shared by concurrent lanes. Capacity is counted in entries; eviction is
// least-recently-used. All methods are safe for concurrent use.
type factorCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recent; values are *cacheEnt
	m   map[cacheKey]*list.Element

	met *svMetrics
}

type cacheEnt struct {
	key cacheKey
	f   *core.Factors[float64]
}

func newFactorCache(capacity int, met *svMetrics) *factorCache {
	return &factorCache{cap: capacity, ll: list.New(), m: make(map[cacheKey]*list.Element), met: met}
}

// get returns the cached factor for key, bumping its recency, and records
// the hit or miss.
func (c *factorCache) get(key cacheKey) *core.Factors[float64] {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		c.met.cacheHits.Inc()
		return el.Value.(*cacheEnt).f
	}
	c.met.cacheMisses.Inc()
	return nil
}

// put inserts f under key, evicting the least-recently-used entry if the
// cache is full. If another lane raced the same factorization in, the
// incumbent wins (both are factors of the identical matrix).
func (c *factorCache) put(key cacheKey, f *core.Factors[float64]) {
	if c.cap < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEnt{key: key, f: f})
	for c.ll.Len() > c.cap {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.m, el.Value.(*cacheEnt).key)
		c.met.cacheEvictions.Inc()
	}
}

func (c *factorCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
