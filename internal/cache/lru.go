// Package cache provides a small, thread-safe LRU. Its one use is the
// caller-owned diag.Input.APGCache and SDCache, which only the
// repository benchmark's warm row (cmd/diadsperf, diag.cached_ms) and
// its go test twin (BenchmarkOnline_CachedDiagnosis) set: the diagnosis
// service keeps no cross-diagnosis cache, since a cached Annotated Plan
// Graph outlives the SAN configuration it was built on.
package cache

import (
	"container/list"
	"sync"
)

// LRU is a fixed-capacity least-recently-used cache safe for concurrent
// use. The zero value is not usable; construct with New.
type LRU[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[K]*list.Element

	hits, misses, evictions int64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an LRU holding at most capacity entries. Capacities below 1
// are raised to 1.
func New[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU[K, V]{
		cap:   capacity,
		order: list.New(),
		items: make(map[K]*list.Element, capacity),
	}
}

// Get returns the cached value for k, marking it most recently used.
func (c *LRU[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		c.hits++
		return el.Value.(*entry[K, V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Put inserts or refreshes k→v, evicting the least recently used entry if
// the cache is full.
func (c *LRU[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*entry[K, V]).val = v
		c.order.MoveToFront(el)
		return
	}
	c.items[k] = c.order.PushFront(&entry[K, V]{key: k, val: v})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[K, V]).key)
		c.evictions++
	}
}

// GetOrCompute returns the cached value for k, computing and inserting it
// on a miss. The compute function runs outside the cache lock, so
// concurrent misses on the same key may compute twice; the last writer
// wins, which is harmless for the immutable values cached here.
func (c *LRU[K, V]) GetOrCompute(k K, compute func() (V, error)) (V, error) {
	if v, ok := c.Get(k); ok {
		return v, nil
	}
	v, err := compute()
	if err != nil {
		return v, err
	}
	c.Put(k, v)
	return v, nil
}

// Len returns the number of cached entries.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// CacheStats reports cache effectiveness counters.
type CacheStats struct {
	Hits, Misses, Evictions int64
}

// Stats returns the cache's effectiveness counters.
func (c *LRU[K, V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}
