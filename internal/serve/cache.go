package serve

import "sync"

// lruEntry is one node of the lruCache's intrusive recency list.
type lruEntry[K comparable, V any] struct {
	key        K
	value      V
	prev, next *lruEntry[K, V]
}

// lruCache is a bounded concurrent map with least-recently-used eviction: a
// hash map into an intrusive doubly-linked recency list whose front is the
// most recently touched entry. Hits promote (touch-on-hit), so sustained
// popularity keeps an entry resident regardless of its insertion age, which
// is what skewed top-K traffic needs from the static-view memo. Reads mutate
// the recency list, so every operation takes the exclusive lock; the list
// splice is a handful of pointer writes, which profiles far below the
// forward-pass work a miss would cost. A nil *lruCache is a valid,
// always-missing cache, so callers never branch on "caching disabled".
type lruCache[K comparable, V any] struct {
	mu    sync.Mutex
	max   int
	items map[K]*lruEntry[K, V]
	// seen is admit's doorkeeper: keys that missed once and are not cached
	// yet. It holds at most max keys and is cleared when full; put never
	// reads it, and it stays nil in a cache only fed through put.
	seen map[K]struct{}
	// head/tail are sentinels: head.next is the most recent entry, tail.prev
	// the eviction candidate.
	head, tail lruEntry[K, V]
}

// newLruCache returns a cache holding at most max entries, or nil (the
// always-missing cache) when max <= 0.
func newLruCache[K comparable, V any](max int) *lruCache[K, V] {
	if max <= 0 {
		return nil
	}
	c := &lruCache[K, V]{max: max, items: make(map[K]*lruEntry[K, V], max)}
	c.head.next = &c.tail
	c.tail.prev = &c.head
	return c
}

// unlink removes e from the recency list.
func (c *lruCache[K, V]) unlink(e *lruEntry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

// pushFront inserts e as the most recent entry.
func (c *lruCache[K, V]) pushFront(e *lruEntry[K, V]) {
	e.prev = &c.head
	e.next = c.head.next
	e.next.prev = e
	c.head.next = e
}

// get returns the cached value for k, promoting it to most recently used.
func (c *lruCache[K, V]) get(k K) (V, bool) {
	if c == nil {
		var zero V
		return zero, false
	}
	c.mu.Lock()
	e, ok := c.items[k]
	if !ok {
		c.mu.Unlock()
		var zero V
		return zero, false
	}
	c.unlink(e)
	c.pushFront(e)
	v := e.value
	c.mu.Unlock()
	return v, true
}

// put inserts k→v as the most recent entry, evicting the least recently used
// entry when the cache is full. Re-inserting an existing key replaces its
// value and promotes it.
func (c *lruCache[K, V]) put(k K, v V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(k, v)
}

// admit is put behind a doorkeeper, after TinyLFU's (Einziger et al., 2017):
// a key's first miss only records it in seen, and its second inserts k→v as
// put does. Traffic that never asks for a key twice, such as a stream of new
// users, leaves the cache empty and costs only the keys in seen; a key asked
// for again enters on its second miss and hits from then on.
func (c *lruCache[K, V]) admit(k K, v V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, cached := c.items[k]; !cached {
		if _, again := c.seen[k]; !again {
			if c.seen == nil {
				c.seen = make(map[K]struct{})
			} else if len(c.seen) >= c.max {
				clear(c.seen)
			}
			c.seen[k] = struct{}{}
			return
		}
		delete(c.seen, k)
	}
	c.putLocked(k, v)
}

// putLocked is put's body; c.mu must be held.
func (c *lruCache[K, V]) putLocked(k K, v V) {
	if e, ok := c.items[k]; ok {
		e.value = v
		c.unlink(e)
		c.pushFront(e)
		return
	}
	if len(c.items) >= c.max {
		victim := c.tail.prev
		c.unlink(victim)
		delete(c.items, victim.key)
	}
	e := &lruEntry[K, V]{key: k, value: v}
	c.items[k] = e
	c.pushFront(e)
}

// len returns the number of cached entries.
func (c *lruCache[K, V]) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}
