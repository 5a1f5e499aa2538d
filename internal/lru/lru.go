// Package lru provides a small generic least-recently-used cache.
//
// DejaView uses LRU caching for search-result screenshots (§4.4) — "this
// provides significant speedup in cases where the user has to continuously
// go back to specific points in time" — and the playback engine uses it
// for decoded keyframes. The cache size is tunable, as the paper notes.
//
// Two budgeting modes share one implementation: New builds the classic
// count-bounded cache (every entry costs 1), NewBytes builds a
// byte-bounded cache where each entry carries an explicit cost (its
// decoded size) and eviction keeps the sum of resident costs within the
// budget. The byte mode backs the demand-page block cache that makes
// repeated time-machine seeks over cold archives cheap.
package lru

import (
	"container/list"
	"sync"
)

// Cache is an LRU cache mapping K to V. The zero value is not usable; use
// New or NewBytes. Cache is safe for concurrent use: search and playback
// share the screenshot cache across goroutines, and a block cache is
// shared by every stream of an archive.
type Cache[K comparable, V any] struct {
	mu     sync.Mutex
	budget int64 // max sum of resident costs; <= 0 disables caching
	used   int64 // sum of resident costs
	ll     *list.List
	items  map[K]*list.Element

	hits, misses uint64
	evictions    uint64 // entries removed to make room (not Purge)
	evictedCost  uint64 // total cost of those entries

	// onEvict, when set, observes each budget eviction. It is called with
	// the cache lock held and must not call back into the cache.
	onEvict func(k K, v V, cost int64)
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

// New creates a cache holding at most capacity entries; capacity <= 0
// disables caching (every lookup misses). Entries inserted with Put cost
// 1 each, so the budget is an entry count.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return NewBytes[K, V](int64(capacity))
}

// NewBytes creates a cache whose resident entries' costs sum to at most
// budget; budget <= 0 disables caching. Costs are supplied per entry via
// PutCost; an entry whose cost alone exceeds the budget is not cached.
func NewBytes[K comparable, V any](budget int64) *Cache[K, V] {
	return &Cache[K, V]{
		budget: budget,
		ll:     list.New(),
		items:  make(map[K]*list.Element),
	}
}

// OnEvict registers fn to observe every entry evicted to fit the budget
// (Purge does not count). fn runs with the cache lock held and must not
// call back into the cache. Passing nil clears the hook.
func (c *Cache[K, V]) OnEvict(fn func(k K, v V, cost int64)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onEvict = fn
}

// Get returns the cached value and whether it was present, refreshing its
// recency.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*entry[K, V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Peek returns the cached value and whether it was present without
// refreshing its recency or counting a hit or miss.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Put inserts or refreshes a value at cost 1, evicting least recently
// used entries when over budget.
func (c *Cache[K, V]) Put(k K, v V) {
	c.PutCost(k, v, 1)
}

// PutCost inserts or refreshes a value with an explicit cost, evicting
// least recently used entries until the sum of resident costs fits the
// budget again. A value whose cost alone exceeds the budget is not
// cached (and does not disturb resident entries). Costs below 1 are
// clamped to 1 so a zero-cost flood cannot pin unbounded entries.
func (c *Cache[K, V]) PutCost(k K, v V, cost int64) {
	if cost < 1 {
		cost = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget <= 0 || cost > c.budget {
		return
	}
	if el, ok := c.items[k]; ok {
		e := el.Value.(*entry[K, V])
		c.used += cost - e.cost
		e.val, e.cost = v, cost
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&entry[K, V]{key: k, val: v, cost: cost})
		c.items[k] = el
		c.used += cost
	}
	for c.used > c.budget {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		e := oldest.Value.(*entry[K, V])
		c.ll.Remove(oldest)
		delete(c.items, e.key)
		c.used -= e.cost
		c.evictions++
		c.evictedCost += uint64(e.cost)
		if c.onEvict != nil {
			c.onEvict(e.key, e.val, e.cost)
		}
	}
}

// Len reports the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Used reports the sum of resident entry costs (the entry count for a
// cache built with New).
func (c *Cache[K, V]) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Budget reports the configured cost budget.
func (c *Cache[K, V]) Budget() int64 { return c.budget }

// Stats reports hit and miss counts since creation.
func (c *Cache[K, V]) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// EvictStats reports how many entries budget pressure has evicted since
// creation and their total cost (Purge is not counted).
func (c *Cache[K, V]) EvictStats() (evictions, evictedCost uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions, c.evictedCost
}

// Purge empties the cache, keeping statistics.
func (c *Cache[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
	c.used = 0
}
